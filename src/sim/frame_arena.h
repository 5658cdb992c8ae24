// Monotonic arena with size-class recycling for coroutine frames.
//
// The DES kernel spawns and destroys short-lived Task frames at a high rate
// (one per eviction test, per probe, per timing sample); routing them
// through the global allocator made frame churn a visible fraction of
// scheduler.churn. A FrameArena hands out 16 B-granular blocks from large
// chunks and recycles freed blocks through per-size freelists, so steady
// state allocation is a pop and deallocation a push — no malloc, no lock.
//
// Frames bind to an arena through the thread-local ambient pointer: code
// that spawns coroutines installs a Scope around the spawn (and
// Scheduler::dispatch installs one around every resume, so child Task
// frames land in the owning scheduler's arena automatically). Frames
// allocated with no ambient arena carry a null owner in their header and go
// through the global heap — deallocation dispatches on the header, so mixed
// populations are safe.
//
// Lifetime rule: every block must be freed before its owning arena dies.
// The Scheduler owns its arena and destroys all owned coroutine frames in
// its destructor body, which runs before member destruction.
#pragma once

#include <cstddef>
#include <vector>

namespace meecc::sim {

class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  /// Allocates from the thread-local ambient arena, or the global heap when
  /// none is installed. Called by PromiseBase::operator new.
  static void* allocate_ambient(std::size_t size);

  /// Returns the block to whichever allocator produced it (header dispatch).
  static void deallocate(void* ptr) noexcept;

  /// Drops the freelists and rewinds the bump cursor to the first chunk.
  /// Only legal when no block from this arena is live (e.g. a scheduler
  /// that has destroyed every owned coroutine).
  void reset();

  /// Total chunk bytes reserved (tests / footprint).
  std::size_t bytes_reserved() const { return chunks_.size() * kChunkBytes; }

  /// Blocks currently parked on the freelists (tests: proves recycling).
  std::size_t free_blocks() const;

  /// RAII installer for the thread-local ambient arena; nests.
  class Scope {
   public:
    explicit Scope(FrameArena* arena) : previous_(ambient_) {
      ambient_ = arena;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { ambient_ = previous_; }

   private:
    FrameArena* previous_;
  };

 private:
  /// Precedes every block. 16 bytes, so payloads keep max_align alignment.
  struct alignas(16) Header {
    FrameArena* owner;  // null → global heap block
    std::size_t bytes;  // total block size including this header
  };

  static constexpr std::size_t kAlign = 16;
  /// Blocks above this total size bypass the arena (coroutine frames are
  /// small; anything bigger is rare enough that malloc is fine).
  static constexpr std::size_t kMaxClassBytes = 4096;
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  void* allocate(std::size_t total);
  void recycle(Header* header) noexcept;

  /// Defined here, constant-initialized: every translation unit then
  /// addresses it directly instead of through a TLS init wrapper, which
  /// UBSan (GCC 12) misreads as a store through a null pointer.
  static inline constinit thread_local FrameArena* ambient_ = nullptr;

  std::vector<void*> chunks_;
  std::size_t active_chunk_ = 0;  // index into chunks_ being bumped
  std::size_t chunk_used_ = 0;    // bytes used in chunks_[active_chunk_]
  /// Freelist heads indexed by total/kAlign; parked blocks link through
  /// their (dead) payload's first word.
  std::vector<void*> free_lists_ =
      std::vector<void*>(kMaxClassBytes / kAlign + 1, nullptr);
};

}  // namespace meecc::sim
