#pragma once

/// iPregel — umbrella header for the public API.
///
/// A combiner-based in-memory shared-memory vertex-centric framework,
/// reproducing Capelli, Hu & Zakian, ICPP 2018.
///
/// Typical use:
///
///   #include "ipregel.hpp"
///
///   auto edges = ipregel::graph::load_edge_list_text("graph.txt");
///   auto g = ipregel::graph::CsrGraph::build(
///       edges, {.addressing = ipregel::graph::AddressingMode::kOffset,
///               .build_in_edges = true});
///   ipregel::Engine<ipregel::apps::PageRank, ipregel::CombinerKind::kPull,
///                   /*Bypass=*/false>
///       engine(g, ipregel::apps::PageRank{.rounds = 30});
///   auto result = engine.run();
///   double rank_of_7 = engine.value_of(7);

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/frontier.hpp"
#include "core/mailbox.hpp"
#include "core/program_traits.hpp"
#include "core/run_error.hpp"
#include "core/runner.hpp"
#include "ft/binary_format.hpp"
#include "ft/checkpoint.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/fault.hpp"
#include "ft/fingerprint.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "ft/supervisor.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_stream.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "graph/types.hpp"
#include "query/broker.hpp"
#include "query/epoch.hpp"
#include "query/point_query.hpp"
#include "query/result_cache.hpp"
#include "query/service.hpp"
#include "runtime/memory_tracker.hpp"
#include "service/degradation.hpp"
#include "store/page_cache.hpp"
#include "store/page_error.hpp"
#include "store/page_format.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"
#include "service/job.hpp"
#include "service/job_manager.hpp"
#include "service/shed.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
