// PacketArena: slab-backed block allocator for the packet plane.
//
// The per-class ring buffers (queueing/ClassQueue) are the only place the
// hot path ever asks the global allocator for memory: a deep backlog doubles
// a ring, a scheduler teardown frees it. Backing the rings with an arena
// removes that traffic entirely — blocks are carved from large lazily
// allocated chunks, recycled through per-size freelists when a ring grows or
// a queue is destroyed, and only returned to the operating system when the
// arena itself dies. A prewarmed arena (reserve()) makes ring growth
// allocation-free even the first time, which is what the pipeline micro
// bench's 0.0 allocs/packet guard relies on.
//
// Blocks are power-of-two sized (minimum kMinBlockBytes) so a ring that
// doubles releases a block exactly one size class below the one it acquires,
// and a later ring of the same depth reuses it without fragmentation. The
// freelist is intrusive — the next pointer lives in the freed block itself —
// so the arena's bookkeeping never allocates either.
//
// Lifetime rule: the arena must outlive every queue it backs. Network owns
// one, declared before its schedulers so destruction releases rings into a
// still-live arena. The arena is
// single-threaded, like the simulator kernel it serves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pds {

class PacketArena {
 public:
  // Granularity floor of the size classes; every block is a power of two
  // >= this. 64 bytes keeps distinct blocks on distinct cache lines.
  static constexpr std::size_t kMinBlockBytes = 64;

  // Default backing-chunk size. A chunk serves many rings; requests larger
  // than the chunk get a dedicated chunk of their own size.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{256} * 1024;

  explicit PacketArena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~PacketArena() = default;

  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  // Returns a block of at least `bytes` bytes (rounded up to the block size
  // block_size(bytes) the caller must remember for release). Never fails
  // short of std::bad_alloc from the underlying chunk allocation.
  void* acquire(std::size_t bytes);

  // Returns a block obtained from acquire(bytes) to its freelist. The
  // arena keeps the memory for reuse; nothing is freed until destruction.
  void release(void* block, std::size_t bytes) noexcept;

  // Ensures at least `bytes` of contiguous never-used capacity, so the next
  // acquisitions up to that total hit no global allocation. Call before a
  // measured region to make subsequent ring growth allocation-free.
  void reserve(std::size_t bytes);

  // Rounded block size a request for `bytes` actually occupies.
  static std::size_t block_size(std::size_t bytes) noexcept;

  // --- statistics (tests, benches) ---------------------------------------
  std::uint64_t chunks_allocated() const noexcept { return chunks_.size(); }
  std::uint64_t blocks_acquired() const noexcept { return acquired_; }
  std::uint64_t blocks_released() const noexcept { return released_; }
  // Acquisitions served from the freelist rather than fresh chunk space.
  std::uint64_t freelist_hits() const noexcept { return freelist_hits_; }
  std::uint64_t bytes_in_chunks() const noexcept { return chunk_bytes_total_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // Size-class index of a (already rounded) block size.
  static std::size_t class_index(std::size_t block) noexcept;

  // Large enough for any sane block (kMinBlockBytes << 40 overflows memory
  // long before the index does).
  static constexpr std::size_t kNumClasses = 40;

  void new_chunk(std::size_t at_least);

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_ = nullptr;       // next unused byte of the current chunk
  std::size_t bump_left_ = 0;       // unused bytes left in the current chunk
  FreeNode* free_[kNumClasses] = {};
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t freelist_hits_ = 0;
  std::uint64_t chunk_bytes_total_ = 0;
};

}  // namespace pds
