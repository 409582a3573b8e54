#pragma once

// Micro-probes of single layers, each timed from outside around calls into
// the layer's public functions. They report through the traced run only.

#include <cstddef>

#include "runtime/thread_pool.hpp"
#include "store/paged_store.hpp"

namespace perfbench {

/// Median microseconds of one ThreadPool::run with an empty body.
[[nodiscard]] double dispatch_us(ipregel::runtime::ThreadPool& pool);

/// Pin + unpin of a resident page, nanoseconds per pair, from `threads`
/// concurrent threads (each on its own page) of one full-budget PageCache.
[[nodiscard]] double pin_ns(const ipregel::store::PagedStore& store,
                            std::size_t threads);

/// SpscRing throughput in GB/s, one producer thread and one consumer
/// thread, moving frames of `frame_bytes` payload.
[[nodiscard]] double ring_gbps(std::size_t frame_bytes);

/// Median round trip of one control message over a shard Channel pair,
/// echoed by a second thread, in microseconds.
[[nodiscard]] double ctrl_rtt_us();

/// A fixed reference loop that shares no code with the library: pointer
/// chasing plus integer mixing over a private 256 KiB table. Its time moves
/// only with the host (frequency, cache and memory-bandwidth neighbours).
[[nodiscard]] double host_ref_s();

}  // namespace perfbench
