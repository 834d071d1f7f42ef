/**
 * @file
 * Unit tests for src/util: RNG determinism and statistics, discrete
 * distributions, histograms, running stats and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/util/distribution.hh"
#include "src/util/json.hh"
#include "src/util/rng.hh"
#include "src/util/stats.hh"
#include "src/util/table.hh"

namespace {

using sac::util::BucketHistogram;
using sac::util::DiscreteDistribution;
using sac::util::Json;
using sac::util::Rng;
using sac::util::RunningStat;
using sac::util::Table;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto x = rng.nextInRange(-3, 3);
        EXPECT_GE(x, -3);
        EXPECT_LE(x, 3);
        saw_lo |= x == -3;
        saw_hi |= x == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolMatchesProbability)
{
    Rng rng(17);
    int trues = 0;
    for (int i = 0; i < 20000; ++i)
        trues += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(trues / 20000.0, 0.3, 0.02);
}

TEST(DiscreteDistribution, SingleOutcome)
{
    DiscreteDistribution d({{42, 1.0}});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d.sample(rng), 42);
    EXPECT_DOUBLE_EQ(d.mean(), 42.0);
}

TEST(DiscreteDistribution, ProbabilitiesNormalized)
{
    DiscreteDistribution d({{1, 2.0}, {2, 6.0}, {3, 2.0}});
    EXPECT_NEAR(d.probability(0), 0.2, 1e-12);
    EXPECT_NEAR(d.probability(1), 0.6, 1e-12);
    EXPECT_NEAR(d.probability(2), 0.2, 1e-12);
    EXPECT_NEAR(d.mean(), 0.2 * 1 + 0.6 * 2 + 0.2 * 3, 1e-12);
}

TEST(DiscreteDistribution, SamplingMatchesWeights)
{
    DiscreteDistribution d({{1, 1.0}, {2, 3.0}});
    Rng rng(23);
    int twos = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        twos += d.sample(rng) == 2 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(twos) / n, 0.75, 0.02);
}

TEST(DiscreteDistribution, ZeroWeightOutcomeNeverSampled)
{
    DiscreteDistribution d({{1, 0.0}, {2, 1.0}});
    Rng rng(29);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(d.sample(rng), 2);
}

TEST(DiscreteDistribution, SampleIndexIsTheUpperBoundOfTheDraw)
{
    // The table and the branchless count must pick exactly the
    // outcome std::upper_bound picks for the same uniform draw: the
    // Figure 4b weights, bounds on bucket edges (0.25, 0.5), a zero
    // weight, and more outcomes than the table can name.
    std::vector<std::vector<DiscreteDistribution::Outcome>> cases = {
        {{1, 0.40}, {2, 0.25}, {3, 0.12}, {4, 0.07}, {5, 0.05},
         {10, 0.06}, {15, 0.02}, {20, 0.02}, {25, 0.01}},
        {{1, 0.25}, {2, 0.25}, {3, 0.5}},
        {{1, 0.0}, {2, 1.0}, {3, 0.0}},
    };
    cases.emplace_back();
    for (int v = 0; v < 300; ++v)
        cases.back().push_back({v, 1.0 + v % 7});
    for (const auto &outcomes : cases) {
        double total = 0.0;
        for (const auto &o : outcomes)
            total += o.weight;
        std::vector<double> cumulative;
        double run = 0.0;
        for (const auto &o : outcomes)
            cumulative.push_back(run += o.weight / total);
        cumulative.back() = 1.0;

        const DiscreteDistribution d(outcomes);
        Rng draws(31);
        Rng oracle(31);
        for (int i = 0; i < 200000; ++i) {
            const double u = oracle.nextDouble();
            const auto at = std::upper_bound(cumulative.begin(),
                                             cumulative.end(), u) -
                            cumulative.begin();
            const auto want = std::min<std::size_t>(
                static_cast<std::size_t>(at), outcomes.size() - 1);
            ASSERT_EQ(d.sampleIndex(draws), want) << "draw " << i;
        }
    }
}

TEST(BucketHistogram, AssignsToCorrectBuckets)
{
    BucketHistogram h({10, 100}, {"<10", "10-99", ">=100"});
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(99);
    h.add(100);
    h.add(5000);
    EXPECT_DOUBLE_EQ(h.count(0), 2.0);
    EXPECT_DOUBLE_EQ(h.count(1), 2.0);
    EXPECT_DOUBLE_EQ(h.count(2), 2.0);
    EXPECT_DOUBLE_EQ(h.total(), 6.0);
    EXPECT_NEAR(h.fraction(1), 1.0 / 3.0, 1e-12);
}

TEST(BucketHistogram, EmptyHistogramFractionIsZero)
{
    BucketHistogram h({1}, {"a", "b"});
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
}

TEST(BucketHistogram, WeightedAdds)
{
    BucketHistogram h({5}, {"low", "high"});
    h.add(1, 2.5);
    h.add(10, 7.5);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
}

TEST(RunningStat, TracksMinMaxMean)
{
    RunningStat s;
    s.add(1.0);
    s.add(5.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(RunningStat, EmptyMeanIsZero)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(StatsHelpers, SafeRatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(sac::util::safeRatio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(sac::util::safeRatio(6.0, 3.0), 2.0);
}

TEST(StatsHelpers, FormatFixed)
{
    EXPECT_EQ(sac::util::formatFixed(1.23456, 2), "1.23");
    EXPECT_EQ(sac::util::formatFixed(2.0, 3), "2.000");
}

TEST(StatsHelpers, FormatPercent)
{
    EXPECT_EQ(sac::util::formatPercent(0.1234, 1), "12.3%");
}

TEST(TableTest, AlignsColumnsAndUnderlinesHeader)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.50"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("------"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(TableTest, NumericSetters)
{
    Table t({"a"});
    const auto r = t.addRow();
    t.setNumber(r, 0, 3.14159, 2);
    EXPECT_NE(t.toString().find("3.14"), std::string::npos);
}

TEST(TableTest, RowAndColCounts)
{
    Table t({"a", "b", "c"});
    EXPECT_EQ(t.cols(), 3u);
    t.addRow();
    t.addRow();
    EXPECT_EQ(t.rows(), 2u);
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    Json doc = Json::object();
    doc.set("name", "soft");
    doc.set("count", std::uint64_t{42});
    doc.set("ratio", 0.125);
    doc.set("neg", std::int64_t{-7});
    doc.set("on", true);
    doc.set("off", false);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    Json inner = Json::object();
    inner.set("k", "v");
    arr.push(std::move(inner));
    doc.set("list", std::move(arr));

    for (const int indent : {0, 2}) {
        std::string err;
        const auto parsed = Json::parse(doc.dump(indent), &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        // Ordered members + identical scalars => identical bytes.
        EXPECT_EQ(parsed->dump(2), doc.dump(2));
    }
}

TEST(JsonParse, ScalarsAndAccessors)
{
    const auto v = Json::parse(
        "{\"i\": -3, \"u\": 18446744073709551615, \"d\": 2.5,"
        " \"s\": \"x\", \"b\": true}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("i")->asInt(), -3);
    EXPECT_EQ(v->find("u")->asUint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(v->find("d")->asDouble(), 2.5);
    EXPECT_EQ(v->find("s")->asString(), "x");
    EXPECT_TRUE(v->find("b")->asBool());
    // Cross-type accessors fall back instead of crashing.
    EXPECT_EQ(v->find("s")->asInt(99), 99);
    EXPECT_EQ(v->find("i")->asUint(), 0u);
    EXPECT_DOUBLE_EQ(v->find("i")->asDouble(), -3.0);
}

TEST(JsonParse, OutOfRangeNumbersSaturate)
{
    // Casting an out-of-range double to an integer is undefined; the
    // accessors clamp to the target type's range instead.
    const auto v = Json::parse(
        "{\"hi\": 1e300, \"lo\": -1e300,"
        " \"u\": 18446744073709551615}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("hi")->asInt(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(v->find("lo")->asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(v->find("hi")->asUint(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(v->find("lo")->asUint(), 0u);
    EXPECT_EQ(v->find("u")->asInt(),
              std::numeric_limits<std::int64_t>::max());
    // The edges of the representable range still convert exactly.
    EXPECT_EQ(Json(-0x1p63).asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(Json(0x1p62).asUint(), 1ull << 62);
    EXPECT_EQ(Json(-2.9).asInt(), -2);
}

TEST(JsonParse, StringEscapes)
{
    const auto v = Json::parse(
        "\"a\\n\\t\\\"b\\\\c\\u0041\\u00e9\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asString(), "a\n\t\"b\\cA\xc3\xa9");
}

TEST(JsonParse, ArraysAndNesting)
{
    const auto v = Json::parse("[1, [2, 3], {\"k\": [4]}]");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isArray());
    ASSERT_EQ(v->size(), 3u);
    EXPECT_EQ(v->at(0).asInt(), 1);
    EXPECT_EQ(v->at(1).at(1).asInt(), 3);
    EXPECT_EQ(v->at(2).find("k")->at(0).asInt(), 4);
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",            // empty
        "{",           // unterminated object
        "[1,]",        // trailing comma
        "{\"a\" 1}",   // missing colon
        "{a: 1}",      // unquoted key
        "\"abc",       // unterminated string
        "01x",         // trailing garbage
        "{} {}",       // two documents
        "nul",         // bad literal
        "-",           // bare minus
        "\"\\q\"",     // unknown escape
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(Json::parse(text, &err).has_value())
            << "accepted: " << text;
        EXPECT_NE(err.find("offset"), std::string::npos) << text;
    }
}

/** Byte-at-a-time JSON string escaping, the writer's reference. */
std::string
naiveQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"')
            out += "\\\"";
        else if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (c == '\r')
            out += "\\r";
        else if (c == '\t')
            out += "\\t";
        else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
expectQuoteRoundTrips(const std::string &s)
{
    const std::string quoted = Json::quote(s);
    EXPECT_EQ(quoted, naiveQuote(s));
    std::string appended = "prefix";
    Json::appendQuoted(appended, s);
    EXPECT_EQ(appended, "prefix" + quoted);
    std::string err;
    const auto parsed = Json::parse(quoted, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->asString(), s);
}

TEST(JsonQuote, EveryByteValueRoundTrips)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        SCOPED_TRACE(b);
        expectQuoteRoundTrips(one);
        expectQuoteRoundTrips("ab" + one + "cd" + one);
        all += one;
    }
    expectQuoteRoundTrips(all);
    expectQuoteRoundTrips("");
}

TEST(JsonQuote, RandomStringsRoundTrip)
{
    Rng rng(0x51ed);
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng.nextBelow(200), '\0');
        // Mostly printable runs with escapes mixed in, as in a
        // pretty-printed manifest.
        for (char &c : s)
            c = static_cast<char>(rng.nextBelow(8) == 0
                                      ? rng.nextBelow(256)
                                      : 0x20 + rng.nextBelow(0x5f));
        SCOPED_TRACE(i);
        expectQuoteRoundTrips(s);
    }
}

TEST(JsonParse, DepthLimitStopsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    EXPECT_FALSE(Json::parse(deep).has_value());
}

} // namespace
