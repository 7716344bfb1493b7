// Parser tests: documents, expression grammar, precedence, error reporting.
#include <gtest/gtest.h>

#include "jdl/eval.hpp"
#include "jdl/parser.hpp"

namespace cg::jdl {
namespace {

Value eval_source(const std::string& source, const ClassAd* self = nullptr,
                  const ClassAd* other = nullptr) {
  auto expr = parse_expression(source);
  EXPECT_TRUE(expr.has_value()) << source << " -> "
                                << (expr ? "" : expr.error().to_string());
  EvalContext ctx;
  ctx.self = self;
  ctx.other = other;
  return evaluate(*expr.value(), ctx);
}

TEST(ParserTest, ParsesFigure2Document) {
  auto ad = parse_classad(
      "Executable = \"interactive_mpich-g2_app\";\n"
      "JobType = {\"interactive\", \"mpich-g2\"};\n"
      "NodeNumber = 2;\n"
      "Arguments = \"-n\";\n");
  ASSERT_TRUE(ad.has_value());
  EXPECT_EQ(ad->size(), 4u);
  EXPECT_EQ(ad->get_string("Executable"), "interactive_mpich-g2_app");
  EXPECT_EQ(ad->get_int("NodeNumber"), 2);
  const auto types = ad->get_string_list("JobType");
  ASSERT_TRUE(types.has_value());
  EXPECT_EQ(types->size(), 2u);
}

TEST(ParserTest, AttributeNamesCaseInsensitive) {
  auto ad = parse_classad("nodenumber = 3;");
  ASSERT_TRUE(ad.has_value());
  EXPECT_EQ(ad->get_int("NodeNumber"), 3);
  EXPECT_TRUE(ad->has("NODENUMBER"));
}

TEST(ParserTest, TrailingSemicolonOptional) {
  EXPECT_TRUE(parse_classad("a = 1").has_value());
  EXPECT_TRUE(parse_classad("a = 1; b = 2").has_value());
}

TEST(ParserTest, BracketedClassAdForm) {
  auto ad = parse_classad("[ a = 1; b = \"x\"; ]");
  ASSERT_TRUE(ad.has_value());
  EXPECT_EQ(ad->get_int("a"), 1);
  EXPECT_EQ(ad->get_string("b"), "x");
}

TEST(ParserTest, MissingSemicolonBetweenAssignmentsFails) {
  EXPECT_FALSE(parse_classad("a = 1 b = 2").has_value());
}

TEST(ParserTest, MissingEqualsFails) {
  const auto result = parse_classad("a 1;");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "jdl.parse");
}

TEST(ParserTest, ArithmeticPrecedence) {
  EXPECT_EQ(eval_source("2 + 3 * 4").as_int(), 14);
  EXPECT_EQ(eval_source("(2 + 3) * 4").as_int(), 20);
  EXPECT_EQ(eval_source("10 - 4 - 3").as_int(), 3);  // left associative
  EXPECT_EQ(eval_source("20 / 2 / 5").as_int(), 2);
  EXPECT_EQ(eval_source("7 % 3").as_int(), 1);
}

TEST(ParserTest, ComparisonBindsLooserThanArithmetic) {
  EXPECT_TRUE(eval_source("1 + 1 == 2").is_true());
  EXPECT_TRUE(eval_source("2 * 3 > 5").is_true());
}

TEST(ParserTest, LogicalPrecedence) {
  // && binds tighter than ||.
  EXPECT_TRUE(eval_source("true || false && false").is_true());
  EXPECT_FALSE(eval_source("(true || false) && false").is_true());
}

TEST(ParserTest, UnaryOperators) {
  EXPECT_EQ(eval_source("-5").as_int(), -5);
  EXPECT_EQ(eval_source("--5").as_int(), 5);
  EXPECT_TRUE(eval_source("!false").is_true());
  EXPECT_FALSE(eval_source("!!false").is_true());
}

TEST(ParserTest, TernaryExpression) {
  EXPECT_EQ(eval_source("true ? 1 : 2").as_int(), 1);
  EXPECT_EQ(eval_source("false ? 1 : 2").as_int(), 2);
  // Nested in the false arm (right associative).
  EXPECT_EQ(eval_source("false ? 1 : true ? 2 : 3").as_int(), 2);
}

TEST(ParserTest, Lists) {
  const Value v = eval_source("{1, 2, 3}");
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 3u);
  const Value empty = eval_source("{}");
  ASSERT_TRUE(empty.is_list());
  EXPECT_TRUE(empty.as_list().empty());
}

TEST(ParserTest, FunctionCalls) {
  EXPECT_EQ(eval_source("size({1,2,3})").as_int(), 3);
  EXPECT_TRUE(eval_source("member(2, {1,2,3})").is_true());
  EXPECT_FALSE(eval_source("member(9, {1,2,3})").is_true());
}

TEST(ParserTest, ScopedReferences) {
  ClassAd self;
  self.set_int("x", 1);
  ClassAd other;
  other.set_int("x", 2);
  EXPECT_EQ(eval_source("self.x", &self, &other).as_int(), 1);
  EXPECT_EQ(eval_source("other.x", &self, &other).as_int(), 2);
  EXPECT_EQ(eval_source("x", &self, &other).as_int(), 1);  // bare = self
}

TEST(ParserTest, UnbalancedParenFails) {
  EXPECT_FALSE(parse_expression("(1 + 2").has_value());
  EXPECT_FALSE(parse_expression("{1, 2").has_value());
  EXPECT_FALSE(parse_expression("size(1,").has_value());
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(parse_expression("1 + 2 extra").has_value());
}

TEST(ParserTest, ToSourcePinsBinaryAndTernaryText) {
  // The round trip below checks meaning; this pins the rendered bytes: every
  // binary and ternary node is parenthesized, operands spaced.
  auto binary = parse_expression("other.FreeCPUs * 2 >= 4 && Arch != \"x86\"");
  ASSERT_TRUE(binary.has_value());
  EXPECT_EQ(to_source(*binary.value()),
            "(((other.FreeCPUs * 2) >= 4) && (Arch != \"x86\"))");
  auto ternary = parse_expression("self.Load > 1 ? Rank : Rank - 1");
  ASSERT_TRUE(ternary.has_value());
  EXPECT_EQ(to_source(*ternary.value()),
            "((self.Load > 1) ? Rank : (Rank - 1))");
}

TEST(ParserTest, RoundTripThroughSource) {
  auto ad = parse_classad(
      "Requirements = other.Arch == \"i686\" && other.FreeCPUs >= 2;\n"
      "Rank = other.FreeCPUs * 2;\n");
  ASSERT_TRUE(ad.has_value());
  // Reparse the rendered source and verify it still evaluates identically.
  auto reparsed = parse_classad(ad->to_source());
  ASSERT_TRUE(reparsed.has_value()) << ad->to_source();
  ClassAd machine;
  machine.set_string("Arch", "i686");
  machine.set_int("FreeCPUs", 4);
  EvalContext ctx1{&ad.value(), &machine};
  EvalContext ctx2{&reparsed.value(), &machine};
  EXPECT_TRUE(evaluate(*ad->lookup("Requirements"), ctx1).is_true());
  EXPECT_TRUE(evaluate(*reparsed->lookup("Requirements"), ctx2).is_true());
  EXPECT_EQ(evaluate(*reparsed->lookup("Rank"), ctx2).as_int(), 8);
}

TEST(ParserTest, ClassAdMutation) {
  ClassAd ad;
  ad.set_string("a", "x");
  EXPECT_TRUE(ad.has("a"));
  EXPECT_TRUE(ad.erase("A"));   // case-insensitive erase
  EXPECT_FALSE(ad.has("a"));
  EXPECT_FALSE(ad.erase("a"));
  EXPECT_TRUE(ad.empty());
}

TEST(ParserTest, GetStringListAcceptsSingleString) {
  ClassAd ad;
  ad.set_string("JobType", "interactive");
  const auto list = ad.get_string_list("JobType");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<std::string>{"interactive"}));
}

}  // namespace
}  // namespace cg::jdl
