#pragma once

#include <cstdint>
#include <type_traits>

#include "core/aggregator_traits.hpp"
#include "core/config.hpp"
#include "ft/snapshot.hpp"

namespace ipregel::ft {

// The one checkpoint contract: which programs may checkpoint at all, which
// may checkpoint lightweight, and whether a snapshot may resume under a
// given engine. Engine (over a shard slice too), the shard coordinator and
// the serving layer's checkpoint downgrade all ask here.

/// Snapshots memcpy values and messages, so non-trivially-copyable types
/// cannot be checkpointed (rejected at runtime, not compile time, so such
/// programs still run with checkpointing off).
template <typename P>
inline constexpr bool kTriviallyCheckpointable =
    std::is_trivially_copyable_v<typename P::value_type> &&
    std::is_trivially_copyable_v<typename P::message_type>;

/// True when P provides the `resend(ctx)` hook lightweight recovery uses
/// to regenerate in-flight messages from vertex values. Programs declare
/// it as `void resend(auto& ctx) const`, so one probe answers for every
/// engine's context type; the requires-expression is unevaluated and never
/// instantiates the hook's body.
template <typename P>
inline constexpr bool kResendCapable =
    requires(const P& p, int& probe) { p.resend(probe); };

/// Lightweight snapshots hold values + halted flags only: recovery must
/// regenerate the messages (resend), and there must be no folded
/// aggregate, which vertex state cannot reproduce.
template <typename P>
inline constexpr bool kLightweightCapable =
    kTriviallyCheckpointable<P> && kResendCapable<P> && !HasAggregator<P>;

/// SnapshotMeta::combiner of per-shard snapshot slices — a value no
/// CombinerKind uses, so an engine never mistakes a slice for whole-run
/// state even before the fingerprint check fires.
inline constexpr std::uint8_t kShardCombinerTag = 0xF5;

namespace detail {

/// Mailbox layouts a snapshot's pending messages can be in. The two push
/// combiners share one; pull outboxes and shard slices each have their own.
enum class LayoutFamily : std::uint8_t { kPush, kPull, kShard, kUnknown };

[[nodiscard]] constexpr LayoutFamily layout_family(
    std::uint8_t combiner) noexcept {
  switch (combiner) {
    case static_cast<std::uint8_t>(CombinerKind::kMutexPush):
    case static_cast<std::uint8_t>(CombinerKind::kSpinlockPush):
      return LayoutFamily::kPush;
    case static_cast<std::uint8_t>(CombinerKind::kPull):
      return LayoutFamily::kPull;
    case kShardCombinerTag:
      return LayoutFamily::kShard;
    default:
      return LayoutFamily::kUnknown;
  }
}

}  // namespace detail

/// An engine's snapshot identity. `meta` is what it stamps on every
/// snapshot it captures: graph fingerprint, program fingerprint (shard-
/// bound for a slice), combiner (or kShardCombinerTag), bypass,
/// aggregator, slot range and graph shape, value and message sizes. Its
/// mode, superstep and aggregate_size are per capture and not compared.
struct SnapshotBinding {
  SnapshotMeta meta;
  bool lightweight_capable = false;
};

/// The metadata of a snapshot captured under `b` (the caller sets
/// aggregate_size when it captures an aggregate).
[[nodiscard]] inline SnapshotMeta bound_meta(
    const SnapshotBinding& b, CheckpointMode mode,
    std::uint64_t superstep) noexcept {
  SnapshotMeta m = b.meta;
  m.mode = mode;
  m.superstep = superstep;
  return m;
}

/// Whether a snapshot may resume under an engine bound as `b`: nullptr
/// when it may, a static reason otherwise. Nothing is restored on a
/// rejection, so a mismatched snapshot never has its bytes reinterpreted.
///
/// Heavyweight snapshots carry the pending mailbox generation, so they
/// need the same layout family, bypass setting and aggregator support.
/// Lightweight ones carry values only and resume across the push and pull
/// families (never into or out of a shard slice), provided the program
/// can regenerate the messages. A program fingerprint of 0 is a format-v1
/// snapshot, which predates the field: that one check is skipped.
[[nodiscard]] inline const char* binding_mismatch(
    const SnapshotMeta& m, const SnapshotBinding& b) noexcept {
  using detail::LayoutFamily;
  const SnapshotMeta& want = b.meta;
  const bool heavy = m.mode == CheckpointMode::kHeavyweight;
  const LayoutFamily have = detail::layout_family(m.combiner);
  const LayoutFamily need = detail::layout_family(want.combiner);
  if (m.graph_fingerprint != want.graph_fingerprint) {
    return "graph fingerprint differs — this snapshot was taken on a "
           "different graph";
  }
  if (m.program_fingerprint != 0 &&
      m.program_fingerprint != want.program_fingerprint) {
    return "program fingerprint differs — this snapshot belongs to a "
           "different application, value/message layout or shard topology";
  }
  if (have == LayoutFamily::kUnknown ||
      (have != need && (heavy || have == LayoutFamily::kShard ||
                        need == LayoutFamily::kShard))) {
    return "mailbox layout family differs (push mailboxes, pull outboxes "
           "and shard slices are not interchangeable); use a lightweight "
           "snapshot to resume across versions";
  }
  if (m.num_slots != want.num_slots || m.first_slot != want.first_slot ||
      m.num_vertices != want.num_vertices || m.num_edges != want.num_edges) {
    return "graph shape or slot range differs (|V|, |E|, or slot layout)";
  }
  if (m.value_size != want.value_size ||
      m.message_size != want.message_size) {
    return "vertex value or message size differs";
  }
  if (!heavy && !b.lightweight_capable) {
    return "lightweight recovery requires the program to provide "
           "resend(ctx) and no aggregator";
  }
  if (m.has_aggregator != want.has_aggregator) {
    return "aggregator support differs between snapshot and program";
  }
  if (heavy && m.selection_bypass != want.selection_bypass) {
    return "selection-bypass setting differs; use a lightweight snapshot "
           "to resume across versions";
  }
  return nullptr;
}

}  // namespace ipregel::ft
