#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "sim/sim_checks.h"

namespace pioqo::sim {
namespace {

/// Splitmix64-style mixer: order-sensitive, cheap (a few ALU ops per event).
/// This exact sequence of operations is load-bearing: trace_golden_test pins
/// hash values recorded from the seed engine, so changing the mixer (or the
/// order events feed it) is a breaking change to the bit-identity proof.
uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// Pre-size for a typical scenario so steady state never reallocates; both
/// vectors grow past this transparently for the soak workloads.
constexpr size_t kInitialCapacity = 1024;

}  // namespace

Simulator::Simulator() {
  heap_.reserve(kInitialCapacity);
  records_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

Simulator::~Simulator() {
  // Events still pending at teardown usually mean a scenario was abandoned
  // mid-flight (fine after RunUntil) — but with the invariant checker on,
  // surface it: a pending resume of a coroutine that outlives this
  // simulator is a latent dangling-handle bug.
  if (checks::Enabled() && !heap_.empty()) {
    PIOQO_LOG_WARNING << "Simulator destroyed with " << heap_.size()
                      << " pending event(s); any coroutine resume among them "
                         "is now unreachable (suspended workers leak)";
  }
}

void Simulator::ReleaseSlot(uint32_t slot) {
  EventRecord& rec = records_[slot];
  rec.cb = nullptr;
  rec.cancellable = false;
  rec.cancelled = false;
  ++rec.generation;  // invalidates every outstanding token for this slot
  free_slots_.push_back(slot);
}

Simulator::HeapNode Simulator::HeapPopMin() {
  const HeapNode min = heap_.front();
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Bottom-up deletion: promote the earliest child into the hole all the
    // way down to a leaf *without* comparing against `last`, then sift
    // `last` up from that leaf. `last` came from the deepest layer, so the
    // up-phase almost always terminates immediately — this trades the
    // per-level compare-to-last (a near-always-mispredicted branch on
    // random event times) for an expected O(1) tail. Child selection is a
    // pairwise tournament of conditional moves for the same reason: this
    // sift is the innermost loop of the whole simulator.
    size_t hole = 0;
    const size_t n = heap_.size();
    HeapNode* h = heap_.data();
    for (;;) {
      const size_t c0 = 4 * hole + 1;
      if (c0 + 3 < n) {
        // Fast path: all four children exist. Index selection is pure
        // arithmetic (bool-to-offset add, then a mask merge) because a
        // conditional move is exactly what the optimizer must NOT turn
        // back into a branch here — the comparisons are coin flips.
        const size_t m01 = c0 + static_cast<size_t>(EarlierThan(h[c0 + 1], h[c0]));
        const size_t m23 =
            c0 + 2 + static_cast<size_t>(EarlierThan(h[c0 + 3], h[c0 + 2]));
        const size_t sel = 0 - static_cast<size_t>(EarlierThan(h[m23], h[m01]));
        const size_t best = m01 ^ ((m01 ^ m23) & sel);
        h[hole] = h[best];
        hole = best;
      } else {
        // Frontier: 0–3 children remain (runs at most once).
        if (c0 >= n) break;
        size_t best = c0;
        for (size_t c = c0 + 1; c < n; ++c) {
          if (EarlierThan(h[c], h[best])) best = c;
        }
        h[hole] = h[best];
        hole = best;
      }
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 4;
      if (!EarlierThan(last, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = last;
  }
  return min;
}

bool Simulator::Cancel(uint64_t token) {
  const uint32_t slot = static_cast<uint32_t>(token & kSlotMask);
  const uint32_t generation = static_cast<uint32_t>(token >> kSlotBits);
  if (slot >= records_.size()) return false;
  EventRecord& rec = records_[slot];
  // Generation mismatch ⇒ the event already fired or was cancelled and the
  // slot was released (possibly reused); the token is stale.
  if (rec.generation != generation || !rec.cancellable || rec.cancelled) {
    return false;
  }
  rec.cancelled = true;
  --num_pending_;
  ++cancelled_in_heap_;
  return true;
}

bool Simulator::Step() {
  if (checks::Enabled()) {
    PIOQO_CHECK(num_pending_ + cancelled_in_heap_ == heap_.size())
        << "pending-count drift: " << num_pending_ << " live + "
        << cancelled_in_heap_ << " cancelled != " << heap_.size()
        << " heap nodes";
  }
  // Lazily drop cancelled events: they neither run nor advance the clock
  // nor enter the trace hash. The counter guard keeps the (dependent,
  // slab-indexed) cancelled load entirely off the hot path of scenarios
  // that never cancel.
  if (cancelled_in_heap_ != 0) {
    while (!heap_.empty() && records_[SlotOf(heap_.front())].cancelled) {
      ReleaseSlot(SlotOf(HeapPopMin()));
      --cancelled_in_heap_;
    }
  }
  if (heap_.empty()) return false;
  const HeapNode node = HeapPopMin();
  const uint32_t slot = SlotOf(node);
  // Move the callback out and release the slot *before* running, so the
  // callback may schedule new events (even into this slot) freely.
  Callback cb = std::move(records_[slot].cb);
  ReleaseSlot(slot);
  --num_pending_;
  now_ = TimeOf(node);
  last_executed_ = node;
  ++executed_;
  // The node's high word *is* the executed time's IEEE-754 bit pattern —
  // the exact value the hash has always been fed.
  const uint64_t time_bits = static_cast<uint64_t>(node.ord >> 64);
  trace_hash_ = MixHash(trace_hash_, time_bits);
  trace_hash_ = MixHash(trace_hash_, SeqOf(node));
  cb();
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

SimTime Simulator::RunUntil(SimTime t) {
  while (!heap_.empty() && TimeOf(heap_.front()) <= t) {
    Step();
  }
  now_ = std::max(now_, t);
  return now_;
}

}  // namespace pioqo::sim
