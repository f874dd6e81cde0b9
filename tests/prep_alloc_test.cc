// Allocation gate of the Preparation stage: per read, shaping, copying,
// building and assembling sketches into components must cost a constant
// number of heap allocations, whatever the table width, and patching
// sketches with ApplyDelta none at all.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable. Each step is measured on its second call, after
// the calling thread's scan workspace has grown to the table: the steady
// state of a long-lived serving thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "common/random.h"
#include "data/synthetic.h"
#include "zig/component_builder.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ziggy {
namespace {

// Per-step ceiling: a constant, far below one allocation per column, pair
// or component (crime has 128 columns and ~650 tracked pairs).
constexpr size_t kMaxAllocationsPerStep = 64;

// Heap allocations made by fn().
template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

Selection RandomSelection(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  Selection s(n);
  for (size_t r = 0; r < n; ++r) {
    if (rng.Bernoulli(density)) s.Set(r);
  }
  return s;
}

struct StepCounts {
  size_t init_shapes = 0;
  size_t copy = 0;
  size_t build = 0;
  size_t components = 0;
  size_t apply_delta = 0;
};

// Runs every step twice on one thread and returns the second run's counts.
StepCounts MeasureSteps(const Table& table, const TableProfile& profile) {
  const Selection sel = RandomSelection(table.num_rows(), 0.15, 7);
  // A near selection: a few rows flipped, as a refining query moves.
  Selection near = sel;
  for (size_t r = 0; r < table.num_rows(); r += 97) {
    near.Set(r, !near.Contains(r));
  }
  ComponentBuildOptions options;
  options.num_threads = 1;
  StepCounts counts;
  for (int round = 0; round < 2; ++round) {
    SelectionSketches shaped;
    counts.init_shapes =
        CountAllocations([&] { shaped.InitShapes(table, profile); });
    SelectionSketches built;
    counts.build = CountAllocations(
        [&] { built = SelectionSketches::Build(table, profile, sel, 1); });
    std::optional<SelectionSketches> copy;
    counts.copy = CountAllocations([&] { copy.emplace(built); });
    SelectionSketches outside;
    outside.InitShapes(table, profile);
    outside.DeriveAsComplement(profile, built);
    counts.components = CountAllocations([&] {
      Result<ComponentTable> ct = BuildComponentsFromSketches(
          table, profile, sel, built, outside, options);
      ASSERT_TRUE(ct.ok());
    });
    counts.apply_delta = CountAllocations(
        [&] { built.ApplyDelta(table, profile, sel, near); });
  }
  return counts;
}

void ExpectBounded(const std::string& name, const StepCounts& counts) {
  SCOPED_TRACE(name);
  std::printf("%s allocations: InitShapes %zu, copy %zu, Build %zu, "
              "BuildComponentsFromSketches %zu, ApplyDelta %zu\n",
              name.c_str(), counts.init_shapes, counts.copy, counts.build,
              counts.components, counts.apply_delta);
  EXPECT_LE(counts.init_shapes, kMaxAllocationsPerStep);
  EXPECT_LE(counts.copy, kMaxAllocationsPerStep);
  EXPECT_LE(counts.build, kMaxAllocationsPerStep);
  EXPECT_LE(counts.components, kMaxAllocationsPerStep);
  EXPECT_EQ(counts.apply_delta, 0u);
}

TEST(PrepAllocationTest, CrimeStepsAllocateAConstant) {
  SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  const TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  ASSERT_GT(profile.tracked_numeric_pairs().size(), kMaxAllocationsPerStep);
  ExpectBounded("crime", MeasureSteps(ds.table, profile));
}

TEST(PrepAllocationTest, OecdStepsAllocateAConstant) {
  SyntheticDataset ds = MakeOecdDataset().ValueOrDie();
  const TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  ASSERT_GT(ds.table.num_columns(), kMaxAllocationsPerStep);
  ExpectBounded("oecd", MeasureSteps(ds.table, profile));
}

}  // namespace
}  // namespace ziggy
