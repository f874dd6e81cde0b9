// Unit tests for src/storage: Column, Schema, Table, TableBuilder, Selection.

#include <gtest/gtest.h>

#include <cmath>

#include "storage/column.h"
#include "storage/schema.h"
#include "storage/selection.h"
#include "storage/table.h"

namespace ziggy {
namespace {

// ---------------------------------------------------------------- Column --

TEST(ColumnTest, NumericBasics) {
  Column c = Column::FromNumeric("x", {1.0, 2.0, 3.0});
  EXPECT_EQ(c.name(), "x");
  EXPECT_TRUE(c.is_numeric());
  EXPECT_FALSE(c.is_categorical());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 0u);
  EXPECT_DOUBLE_EQ(c.numeric_data()[1], 2.0);
}

TEST(ColumnTest, NumericNullIsNaN) {
  Column c = Column::FromNumeric("x", {1.0, NullNumeric(), 3.0});
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.ValueAsString(1), "NULL");
}

TEST(ColumnTest, CategoricalInternsLabels) {
  Column c = Column::FromStrings("s", {"a", "b", "a", "c", "b"});
  EXPECT_TRUE(c.is_categorical());
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.cardinality(), 3u);
  EXPECT_EQ(c.codes()[0], c.codes()[2]);
  EXPECT_NE(c.codes()[0], c.codes()[1]);
  EXPECT_EQ(c.dictionary()[static_cast<size_t>(c.codes()[3])], "c");
}

TEST(ColumnTest, CategoricalEmptyStringIsNull) {
  Column c = Column::FromStrings("s", {"a", "", "b"});
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.cardinality(), 2u);  // "" not interned
}

TEST(ColumnTest, LookupLabel) {
  Column c = Column::FromStrings("s", {"x", "y"});
  EXPECT_EQ(c.LookupLabel("x"), 0);
  EXPECT_EQ(c.LookupLabel("y"), 1);
  EXPECT_EQ(c.LookupLabel("zzz"), kNullCategory);
}

TEST(ColumnTest, GetValueVariants) {
  Column n = Column::FromNumeric("n", {1.5, NullNumeric()});
  EXPECT_EQ(std::get<double>(n.GetValue(0)), 1.5);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(n.GetValue(1)));
  Column s = Column::FromStrings("s", {"hi"});
  EXPECT_EQ(std::get<std::string>(s.GetValue(0)), "hi");
}

TEST(ColumnTest, AppendCodeRoundTrip) {
  Column c = Column::Categorical("s");
  const CategoryCode code = c.InternLabel("only");
  c.AppendCode(code);
  c.AppendCode(kNullCategory);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ValueAsString(0), "only");
  EXPECT_TRUE(c.IsNull(1));
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AddAndLookup) {
  Schema s;
  ASSERT_TRUE(s.AddField({"a", ColumnType::kNumeric}).ok());
  ASSERT_TRUE(s.AddField({"b", ColumnType::kCategorical}).ok());
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FindField("a"), std::optional<size_t>(0));
  EXPECT_EQ(s.FindField("b"), std::optional<size_t>(1));
  EXPECT_FALSE(s.FindField("c").has_value());
}

TEST(SchemaTest, DuplicateNameRejected) {
  Schema s;
  ASSERT_TRUE(s.AddField({"a", ColumnType::kNumeric}).ok());
  EXPECT_TRUE(s.AddField({"a", ColumnType::kNumeric}).IsAlreadyExists());
}

TEST(SchemaTest, GetFieldIndexErrorNamesColumn) {
  Schema s;
  Result<size_t> r = s.GetFieldIndex("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing"), std::string::npos);
}

TEST(SchemaTest, FieldsOfType) {
  Schema s({{"a", ColumnType::kNumeric},
            {"b", ColumnType::kCategorical},
            {"c", ColumnType::kNumeric}});
  EXPECT_EQ(s.FieldsOfType(ColumnType::kNumeric), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(s.FieldsOfType(ColumnType::kCategorical), (std::vector<size_t>{1}));
}

TEST(SchemaTest, ToString) {
  Schema s({{"x", ColumnType::kNumeric}});
  EXPECT_EQ(s.ToString(), "(x: NUMERIC)");
}

// -------------------------------------------------------------- Selection --

TEST(SelectionTest, CountAndContains) {
  Selection s(5);
  EXPECT_EQ(s.Count(), 0u);
  s.Set(1);
  s.Set(3);
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_TRUE(s.Contains(1));
  EXPECT_FALSE(s.Contains(0));
}

TEST(SelectionTest, AllAndInvert) {
  Selection all = Selection::All(4);
  EXPECT_EQ(all.Count(), 4u);
  Selection none = all.Invert();
  EXPECT_EQ(none.Count(), 0u);
}

TEST(SelectionTest, FromIndices) {
  Selection s = Selection::FromIndices(6, {0, 5});
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_EQ(s.ToIndices(), (std::vector<size_t>{0, 5}));
}

TEST(SelectionTest, AndOr) {
  Selection a = Selection::FromIndices(4, {0, 1});
  Selection b = Selection::FromIndices(4, {1, 2});
  EXPECT_EQ(a.And(b).ToIndices(), (std::vector<size_t>{1}));
  EXPECT_EQ(a.Or(b).ToIndices(), (std::vector<size_t>{0, 1, 2}));
}

TEST(SelectionTest, Jaccard) {
  Selection a = Selection::FromIndices(10, {0, 1, 2, 3});
  Selection b = Selection::FromIndices(10, {2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(a.Jaccard(a), 1.0);
  Selection empty1(10);
  Selection empty2(10);
  EXPECT_DOUBLE_EQ(empty1.Jaccard(empty2), 1.0);
}

TEST(SelectionTest, FingerprintDistinguishesContent) {
  Selection a = Selection::FromIndices(16, {1});
  Selection b = Selection::FromIndices(16, {2});
  Selection c = Selection::FromIndices(16, {1});
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
}

TEST(SelectionTest, FingerprintSeparatesCancellingTopBits) {
  // Bit 63 of two words: an xor-then-multiply word hash (FNV-1a) carries
  // the flipped top bit through every multiply, so the two flips cancel
  // and {63, 127} collided with the empty selection.
  const Selection none(128);
  const Selection tops = Selection::FromIndices(128, {63, 127});
  EXPECT_NE(tops.Fingerprint(), none.Fingerprint());
  EXPECT_NE(Selection::FromIndices(128, {63}).Fingerprint(),
            Selection::FromIndices(128, {127}).Fingerprint());
}

TEST(SelectionTest, InvertRoundTrip) {
  Selection s = Selection::FromIndices(7, {0, 2, 4, 6});
  EXPECT_EQ(s.Invert().Invert(), s);
}

// ------------------------------------------------------------------ Table --

Table MakeSmallTable() {
  auto r = Table::FromColumns({Column::FromNumeric("x", {1, 2, 3, 4}),
                               Column::FromNumeric("y", {10, 20, 30, 40}),
                               Column::FromStrings("s", {"a", "b", "a", "b"})});
  return std::move(r).ValueOrDie();
}

TEST(TableTest, FromColumnsBasics) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.schema().field(2).type, ColumnType::kCategorical);
}

TEST(TableTest, FromColumnsRejectsLengthMismatch) {
  auto r = Table::FromColumns(
      {Column::FromNumeric("x", {1, 2}), Column::FromNumeric("y", {1})});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TableTest, FromColumnsRejectsDuplicateNames) {
  auto r = Table::FromColumns(
      {Column::FromNumeric("x", {1}), Column::FromNumeric("x", {2})});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAlreadyExists());
}

TEST(TableTest, GetColumn) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.GetColumn("y").ok());
  EXPECT_DOUBLE_EQ(t.GetColumn("y").ValueOrDie()->numeric_data()[2], 30.0);
  EXPECT_TRUE(t.GetColumn("zz").status().IsNotFound());
}

TEST(TableTest, FilterKeepsSelectedRows) {
  Table t = MakeSmallTable();
  Table f = t.Filter(Selection::FromIndices(4, {1, 3}));
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(f.column(0).numeric_data()[0], 2.0);
  EXPECT_DOUBLE_EQ(f.column(0).numeric_data()[1], 4.0);
  EXPECT_EQ(f.column(2).ValueAsString(0), "b");
}

TEST(TableTest, ProjectReordersColumns) {
  Table t = MakeSmallTable();
  Table p = t.Project({"s", "x"}).ValueOrDie();
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.schema().field(0).name, "s");
  EXPECT_EQ(p.schema().field(1).name, "x");
  EXPECT_TRUE(t.Project({"nope"}).status().IsNotFound());
}

TEST(TableTest, PreviewRendersHeaderAndRows) {
  Table t = MakeSmallTable();
  const std::string p = t.Preview(0, 2);
  EXPECT_NE(p.find("x"), std::string::npos);
  EXPECT_NE(p.find("10"), std::string::npos);
  EXPECT_EQ(p.find("30"), std::string::npos);  // row 2 not included
}

TEST(TableTest, MemoryUsageNonZero) {
  EXPECT_GT(MakeSmallTable().MemoryUsageBytes(), 0u);
}

// ----------------------------------------------------------- TableBuilder --

TEST(TableBuilderTest, AppendRowsAndFinish) {
  TableBuilder b(Schema({{"v", ColumnType::kNumeric}, {"s", ColumnType::kCategorical}}));
  ASSERT_TRUE(b.AppendRow({Value{1.0}, Value{std::string("a")}}).ok());
  ASSERT_TRUE(b.AppendRow({Value{std::monostate{}}, Value{std::string("b")}}).ok());
  EXPECT_EQ(b.num_rows(), 2u);
  Table t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.column(0).IsNull(1));
}

TEST(TableBuilderTest, RejectsArityMismatch) {
  TableBuilder b(Schema({{"v", ColumnType::kNumeric}}));
  EXPECT_TRUE(b.AppendRow({}).IsInvalidArgument());
  EXPECT_TRUE(
      b.AppendRow({Value{1.0}, Value{2.0}}).IsInvalidArgument());
}

TEST(TableBuilderTest, RejectsTypeMismatchWithoutPartialMutation) {
  TableBuilder b(Schema({{"v", ColumnType::kNumeric}, {"s", ColumnType::kCategorical}}));
  // First cell fine, second cell wrong type: nothing must be appended.
  EXPECT_TRUE(b.AppendRow({Value{1.0}, Value{2.0}}).IsTypeMismatch());
  EXPECT_EQ(b.num_rows(), 0u);
  ASSERT_TRUE(b.AppendRow({Value{1.0}, Value{std::string("ok")}}).ok());
  Table t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableBuilderTest, NullsInBothColumnKinds) {
  TableBuilder b(Schema({{"v", ColumnType::kNumeric}, {"s", ColumnType::kCategorical}}));
  ASSERT_TRUE(b.AppendRow({Value{std::monostate{}}, Value{std::monostate{}}}).ok());
  Table t = b.Finish().ValueOrDie();
  EXPECT_TRUE(t.column(0).IsNull(0));
  EXPECT_TRUE(t.column(1).IsNull(0));
}

// ------------------------------------------------------ Selection memo --

TEST(SelectionMemoTest, InPlaceMutationInvalidatesCachedCount) {
  Selection s(130);
  s.Set(0);
  s.Set(64);
  s.Set(129);
  EXPECT_EQ(s.Count(), 3u);  // memoized here
  s.Set(1);
  EXPECT_EQ(s.Count(), 4u);  // Set must invalidate
  s.Set(1, false);
  EXPECT_EQ(s.Count(), 3u);  // clearing too
  // Copies carry the memo but stay independent.
  Selection copy = s;
  EXPECT_EQ(copy.Count(), 3u);
  copy.Set(2);
  EXPECT_EQ(copy.Count(), 4u);
  EXPECT_EQ(s.Count(), 3u);
}

TEST(SelectionMemoTest, HammingDistanceCountsXorRows) {
  Selection a(130);
  Selection b(130);
  a.Set(0);
  a.Set(64);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

#ifdef GTEST_HAS_DEATH_TEST
#ifndef NDEBUG
// Out-of-range bitmap access is a programming error; the debug build must
// trap it (the release build compiles the check out of the hot loops).
TEST(SelectionDeathTest, OutOfRangeAccessDiesInDebug) {
  Selection s(64);
  EXPECT_DEATH(s.Set(64), "ZIGGY_CHECK failed");
  EXPECT_DEATH((void)s.Contains(64), "ZIGGY_CHECK failed");
  Selection empty;
  EXPECT_DEATH(empty.Set(0), "ZIGGY_CHECK failed");
}
#endif  // !NDEBUG

// Mixing bitmap sizes aborts in every build type (ZIGGY_CHECK, not DCHECK:
// these run once per set operation, not per row).
TEST(SelectionDeathTest, MismatchedSizesDie) {
  Selection a(64);
  Selection b(65);
  EXPECT_DEATH((void)a.And(b), "ZIGGY_CHECK failed");
  EXPECT_DEATH((void)a.HammingDistance(b), "ZIGGY_CHECK failed");
}
#endif  // GTEST_HAS_DEATH_TEST

// ------------------------------------------------------ Table row append --

TEST(TableAppendTest, AppendsRowsAndRemapsDictionaries) {
  auto base = Table::FromColumns(
      {Column::FromNumeric("x", {1.0, 2.0}),
       Column::FromStrings("c", {"red", "blue"})});
  ASSERT_TRUE(base.ok());
  // The tail's dictionary has a different code order plus a new label.
  auto tail = Table::FromColumns(
      {Column::FromNumeric("x", {3.0, 4.0, 5.0}),
       Column::FromStrings("c", {"blue", "green", ""})});
  ASSERT_TRUE(tail.ok());

  auto merged = base->WithAppendedRows(*tail);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 5u);
  EXPECT_DOUBLE_EQ(merged->column(0).numeric_data()[4], 5.0);
  const Column& c = merged->column(1);
  EXPECT_EQ(c.cardinality(), 3u);  // red, blue, green
  EXPECT_EQ(c.ValueAsString(1), "blue");
  EXPECT_EQ(c.ValueAsString(2), "blue");  // remapped through labels
  EXPECT_EQ(c.ValueAsString(3), "green");
  EXPECT_TRUE(c.IsNull(4));
  // Base is untouched (immutability contract of the snapshot layer).
  EXPECT_EQ(base->num_rows(), 2u);
  EXPECT_EQ(base->column(1).cardinality(), 2u);
}

TEST(TableAppendTest, RejectsSchemaMismatch) {
  auto base = Table::FromColumns({Column::FromNumeric("x", {1.0})});
  auto wrong_name = Table::FromColumns({Column::FromNumeric("y", {1.0})});
  auto wrong_type = Table::FromColumns({Column::FromStrings("x", {"a"})});
  auto wrong_arity = Table::FromColumns(
      {Column::FromNumeric("x", {1.0}), Column::FromNumeric("y", {1.0})});
  ASSERT_TRUE(base.ok() && wrong_name.ok() && wrong_type.ok() && wrong_arity.ok());
  EXPECT_FALSE(base->WithAppendedRows(*wrong_name).ok());
  EXPECT_FALSE(base->WithAppendedRows(*wrong_type).ok());
  EXPECT_FALSE(base->WithAppendedRows(*wrong_arity).ok());
}

}  // namespace
}  // namespace ziggy
