/**
 * @file
 * Unit tests for src/trace: records, traces, the Figure-4b timing
 * model and the binary trace format.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <streambuf>
#include <vector>

#include "src/trace/trace_source.hh"

#include "src/sim/checkpoint.hh"
#include "src/trace/record.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_io.hh"

namespace {

using sac::trace::AccessType;
using sac::trace::Record;
using sac::trace::TimingModel;
using sac::trace::Trace;

Record
makeRecord(sac::Addr addr, bool write = false, bool temporal = false,
           bool spatial = false, std::uint16_t delta = 1)
{
    Record r;
    r.addr = addr;
    r.ref = 7;
    r.delta = delta;
    r.type = write ? AccessType::Write : AccessType::Read;
    r.temporal = temporal;
    r.spatial = spatial;
    return r;
}

TEST(RecordTest, Defaults)
{
    Record r;
    EXPECT_TRUE(r.isRead());
    EXPECT_FALSE(r.isWrite());
    EXPECT_EQ(r.size, 8u);
    EXPECT_EQ(r.delta, 1u);
    EXPECT_FALSE(r.temporal);
    EXPECT_FALSE(r.spatial);
}

TEST(RecordTest, Equality)
{
    Record a = makeRecord(0x100);
    Record b = makeRecord(0x100);
    EXPECT_EQ(a, b);
    b.spatial = true;
    EXPECT_FALSE(a == b);
}

TEST(TraceTest, CountsAndIteration)
{
    Trace t("bench");
    t.push(makeRecord(0, false, true, false, 2));
    t.push(makeRecord(8, true, false, true, 3));
    t.push(makeRecord(16, false, true, true, 1));
    EXPECT_EQ(t.name(), "bench");
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.temporalCount(), 2u);
    EXPECT_EQ(t.spatialCount(), 2u);
    EXPECT_EQ(t.writeCount(), 1u);
    EXPECT_EQ(t.totalIssueCycles(), 6u);
    std::size_t n = 0;
    for (const auto &r : t) {
        (void)r;
        ++n;
    }
    EXPECT_EQ(n, 3u);
}

TEST(TraceTest, EmptyTrace)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.totalIssueCycles(), 0u);
    EXPECT_EQ(t.temporalCount(), 0u);
}

TEST(TimingModelTest, DeltasAreInDistributionSupport)
{
    TimingModel tm(99);
    for (int i = 0; i < 10000; ++i) {
        const auto d = tm.sampleDelta();
        EXPECT_GE(d, 1u);
        EXPECT_LE(d, 25u);
    }
}

TEST(TimingModelTest, SameSeedSameDeltas)
{
    TimingModel a(5), b(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.sampleDelta(), b.sampleDelta());
}

TEST(TimingModelTest, MeanDeltaMatchesFigure4b)
{
    TimingModel tm(1);
    // The Figure-4b distribution has most mass at 1-3 cycles; the
    // mean must be small but above 1.
    EXPECT_GT(tm.meanDelta(), 1.5);
    EXPECT_LT(tm.meanDelta(), 5.0);

    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += tm.sampleDelta();
    EXPECT_NEAR(sum / n, tm.meanDelta(), 0.05);
}

TEST(TimingModelTest, CustomDistribution)
{
    TimingModel tm(sac::util::DiscreteDistribution({{4, 1.0}}), 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(tm.sampleDelta(), 4u);
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t("roundtrip");
    for (int i = 0; i < 257; ++i) {
        t.push(makeRecord(static_cast<sac::Addr>(i) * 8, i % 3 == 0,
                          i % 2 == 0, i % 5 == 0,
                          static_cast<std::uint16_t>(1 + i % 20)));
    }
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));

    Trace back;
    ASSERT_TRUE(sac::trace::readTrace(ss, back));
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), "roundtrip");
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIoTest, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "this is not a trace file at all";
    Trace t;
    EXPECT_FALSE(sac::trace::readTrace(ss, t));
}

TEST(TraceIoTest, RejectsTruncatedStream)
{
    Trace t("x");
    t.push(makeRecord(0));
    t.push(makeRecord(8));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    data.resize(data.size() - 5); // chop the last record
    std::stringstream cut(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(cut, back));
}

TEST(TraceIoTest, RejectsBadAccessType)
{
    Trace t("x");
    t.push(makeRecord(0));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    // The access-type byte sits before the tag and spatial-level
    // bytes at the end of the record.
    data[data.size() - 3] = 9;
    std::stringstream bad(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(bad, back));
}

TEST(TraceIoTest, RejectsSizeAbove15)
{
    Trace t("x");
    t.push(makeRecord(0));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    const std::string data = ss.str();
    // The size byte precedes the access-type, tag and spatial-level
    // bytes at the end of the record. The record's size field is 4
    // bits wide, so 16 would read back as 0 if it were accepted.
    for (const unsigned char size : {16, 255}) {
        std::string patched = data;
        patched[patched.size() - 4] = static_cast<char>(size);
        std::stringstream bad(patched);
        Trace back;
        EXPECT_FALSE(sac::trace::readTrace(bad, back))
            << "size byte " << unsigned(size);
    }

    Record r = makeRecord(0x40);
    r.size = 15;
    Trace widest("x");
    widest.push(r);
    std::stringstream out;
    ASSERT_TRUE(sac::trace::writeTrace(widest, out));
    Trace back;
    ASSERT_TRUE(sac::trace::readTrace(out, back));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].size, 15u);
    EXPECT_EQ(back[0], r);
}

/** Append the native bytes of @p v, as writeTrace() does. */
template <typename T>
void
appendBytes(std::string &buf, T v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/**
 * One record per access type and tag combination, each field at its
 * widest value: a bit lost or shared by the packed tag byte shows as
 * a wrong field in memory, in the file bytes or in the trace hash.
 */
std::vector<Record>
extremeRecords()
{
    std::vector<Record> out;
    for (const AccessType type : {AccessType::Read, AccessType::Write}) {
        for (const unsigned tags : {0u, 1u, 2u, 3u}) {
            Record r;
            r.addr = ~sac::Addr{0} - out.size();
            r.ref = sac::invalidRefId;
            r.delta = 0xffff;
            r.size = 15;
            r.type = type;
            r.temporal = (tags & 1u) != 0;
            r.spatial = (tags & 2u) != 0;
            r.spatialLevel = 255;
            out.push_back(r);
        }
    }
    return out;
}

TEST(RecordPackingTest, ExtremeFieldsSurviveInMemory)
{
    const std::vector<Record> records = extremeRecords();
    ASSERT_EQ(records.size(), 8u);
    std::size_t i = 0;
    for (const AccessType type : {AccessType::Read, AccessType::Write}) {
        for (const unsigned tags : {0u, 1u, 2u, 3u}) {
            const Record &r = records[i];
            EXPECT_EQ(r.addr, ~sac::Addr{0} - i);
            EXPECT_EQ(r.ref, sac::invalidRefId);
            EXPECT_EQ(r.delta, 0xffffu);
            EXPECT_EQ(r.size, 15u);
            EXPECT_EQ(r.type, type);
            EXPECT_EQ(r.temporal, (tags & 1u) != 0);
            EXPECT_EQ(r.spatial, (tags & 2u) != 0);
            EXPECT_EQ(r.spatialLevel, 255u);
            const Record copy = r;
            EXPECT_EQ(copy, r);
            ++i;
        }
    }
}

/**
 * The file writeTrace() must produce for extremeRecords() under the
 * name "packed", built by hand: header, then addr, ref, delta, size,
 * type, tags (temporal = 1, spatial = 2) and spatial level per record.
 */
std::string
expectedPackedFile()
{
    std::string out;
    appendBytes(out, std::uint32_t{0x53414354});
    appendBytes(out, std::uint32_t{2});
    appendBytes(out, std::uint32_t{6});
    out += "packed";
    appendBytes(out, std::uint64_t{extremeRecords().size()});
    for (const Record &r : extremeRecords()) {
        appendBytes(out, r.addr);
        appendBytes(out, sac::invalidRefId);
        appendBytes(out, std::uint16_t{0xffff});
        appendBytes(out, std::uint8_t{15});
        appendBytes(out, std::uint8_t(r.type == AccessType::Read ? 1 : 2));
        appendBytes(out, std::uint8_t((r.temporal ? 1 : 0) |
                                      (r.spatial ? 2 : 0)));
        appendBytes(out, std::uint8_t{255});
    }
    return out;
}

TEST(RecordPackingTest, ExtremeFieldsRoundTripThroughTheFileFormat)
{
    Trace t("packed");
    for (const Record &r : extremeRecords())
        t.push(r);
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    EXPECT_EQ(ss.str(), expectedPackedFile());

    Trace back;
    ASSERT_TRUE(sac::trace::readTrace(ss, back));
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]) << "record " << i;
}

TEST(RecordPackingTest, TraceHashSeesEveryField)
{
    const auto hashOf = [](const Record &r) {
        Trace t;
        t.push(r);
        return sac::sim::hashTrace(t);
    };
    for (const Record &base : extremeRecords()) {
        // Each variant changes one field; every hash must differ from
        // the base's and from each other's.
        std::vector<Record> variants(8, base);
        variants[0].addr ^= 1;
        variants[1].ref = 0;
        variants[2].delta = 0xfffe;
        variants[3].size = 14;
        variants[4].type = base.isRead() ? AccessType::Write
                                         : AccessType::Read;
        variants[5].temporal = !base.temporal;
        variants[6].spatial = !base.spatial;
        variants[7].spatialLevel = 254;
        std::set<std::uint64_t> hashes = {hashOf(base)};
        for (std::size_t v = 0; v < variants.size(); ++v) {
            EXPECT_FALSE(variants[v] == base) << "field " << v;
            EXPECT_TRUE(hashes.insert(hashOf(variants[v])).second)
                << "field " << v;
        }
    }

    // The hash mixes the record count and then each record's fields
    // in file order, so it equals FNV-1a over the file after its
    // magic, version and name (4 + 4 + 4 + 6 bytes).
    Trace t;
    for (const Record &r : extremeRecords())
        t.push(r);
    const std::string file = expectedPackedFile();
    EXPECT_EQ(sac::sim::hashTrace(t),
              sac::sim::fnv1a(file.data() + 18, file.size() - 18));
}

TEST(TraceIoTest, RejectsBadVersion)
{
    Trace t("x");
    t.push(makeRecord(0));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    data[4] = 99; // version field follows the 4-byte magic
    std::stringstream bad(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(bad, back));
}

TEST(TraceIoTest, RejectsTruncatedHeader)
{
    Trace t("x");
    t.push(makeRecord(0));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    // Cut inside the 8-byte record count (magic 4 + version 4 +
    // name_len 4 + name 1 + 3 bytes of count).
    data.resize(16);
    std::stringstream cut(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(cut, back));
}

TEST(TraceIoTest, RejectsAbsurdRecordCount)
{
    // A corrupt header claiming 2^60 records over a few real bytes
    // must fail cleanly instead of reserving petabytes.
    Trace t("x");
    t.push(makeRecord(0));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    const std::uint64_t absurd = 1ull << 60;
    // The count sits after magic(4) + version(4) + name_len(4) +
    // name(1).
    std::memcpy(data.data() + 13, &absurd, sizeof(absurd));
    std::stringstream bad(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(bad, back));
}

TEST(TraceIoTest, CountMustMatchRemainingBytesExactly)
{
    // Even count = real + 1 must fail: the stream cannot hold it.
    Trace t("x");
    for (int i = 0; i < 4; ++i)
        t.push(makeRecord(static_cast<sac::Addr>(i) * 8));
    std::stringstream ss;
    ASSERT_TRUE(sac::trace::writeTrace(t, ss));
    std::string data = ss.str();
    const std::uint64_t plus_one = t.size() + 1;
    std::memcpy(data.data() + 13, &plus_one, sizeof(plus_one));
    std::stringstream bad(data);
    Trace back;
    EXPECT_FALSE(sac::trace::readTrace(bad, back));
}

TEST(TraceIoTest, FileRoundTrip)
{
    Trace t("file");
    t.push(makeRecord(0x1234));
    const std::string path = "/tmp/sac_trace_io_test.bin";
    ASSERT_TRUE(sac::trace::writeTraceFile(t, path));
    Trace back;
    ASSERT_TRUE(sac::trace::readTraceFile(path, back));
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0], t[0]);
}

TEST(TraceIoTest, MissingFileFails)
{
    Trace t;
    EXPECT_FALSE(
        sac::trace::readTraceFile("/tmp/definitely_missing_sac", t));
}

// --- Skip semantics on seekable, unseekable and truncated streams ---

/** On-disk bytes of one record (mirrors trace_io.cc's layout). */
constexpr std::uint64_t diskRecordBytes = 18;

/** Header bytes for a trace named @p name. */
std::size_t
headerBytes(const std::string &name)
{
    return 4 + 4 + 4 + name.size() + 8;
}

Trace
numberedTrace(int n)
{
    Trace t("x");
    for (int i = 0; i < n; ++i)
        t.push(makeRecord(static_cast<sac::Addr>(i) * 64));
    return t;
}

/**
 * A pipe-like streambuf: the whole body is readable sequentially but
 * every seek (including tellg's seekoff(0, cur)) fails, like stdin or
 * a filter stream. Exercises the decode-and-discard skip path and the
 * remainingBytes "cannot tell" guard.
 */
class UnseekableBuf : public std::streambuf
{
  public:
    explicit UnseekableBuf(std::string data) : data_(std::move(data))
    {
        setg(data_.data(), data_.data(), data_.data() + data_.size());
    }

  protected:
    pos_type seekoff(off_type, std::ios_base::seekdir,
                     std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }
    pos_type seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

  private:
    std::string data_;
};

/**
 * A stream that can report its position but not move it (tellg works,
 * any repositioning fails): the branch where remainingBytes's probe
 * seek to the end fails after a successful tellg, which used to leave
 * failbit set and poison every subsequent read.
 */
class TellOnlyBuf : public std::streambuf
{
  public:
    explicit TellOnlyBuf(std::string data) : data_(std::move(data))
    {
        setg(data_.data(), data_.data(), data_.data() + data_.size());
    }

  protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir way,
                     std::ios_base::openmode) override
    {
        if (off == 0 && way == std::ios_base::cur)
            return pos_type(gptr() - eback());
        return pos_type(off_type(-1));
    }
    pos_type seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

  private:
    std::string data_;
};

std::string
serialized(const Trace &t)
{
    std::stringstream ss;
    EXPECT_TRUE(sac::trace::writeTrace(t, ss));
    return ss.str();
}

TEST(TraceIoSkipTest, UnseekableStreamSkipsByDecodeDiscard)
{
    const Trace t = numberedTrace(20);
    UnseekableBuf buf(serialized(t));
    std::istream is(&buf);
    sac::trace::TraceStreamReader reader;
    ASSERT_TRUE(reader.open(is));

    EXPECT_EQ(reader.skip(5), 5u);
    EXPECT_FALSE(reader.failed());
    // The probe must not have poisoned the stream: the next read
    // delivers record 5, not garbage or EOF.
    Record r;
    ASSERT_EQ(reader.read(&r, 1), 1u);
    EXPECT_EQ(r.addr, 5u * 64u);
    // Skipping past the end is clamped to what remains, cleanly.
    EXPECT_EQ(reader.skip(100), 14u);
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(TraceIoSkipTest, TellOnlyStreamSkipsCleanly)
{
    const Trace t = numberedTrace(10);
    TellOnlyBuf buf(serialized(t));
    std::istream is(&buf);
    sac::trace::TraceStreamReader reader;
    ASSERT_TRUE(reader.open(is));

    EXPECT_EQ(reader.skip(3), 3u);
    EXPECT_FALSE(reader.failed());
    EXPECT_TRUE(is.good())
        << "the failed end-probe seek must not leave failbit set";
    Record r;
    ASSERT_EQ(reader.read(&r, 1), 1u);
    EXPECT_EQ(r.addr, 3u * 64u);
}

TEST(TraceIoSkipTest, ReadTraceFromUnseekableStream)
{
    const Trace t = numberedTrace(12);
    UnseekableBuf buf(serialized(t));
    std::istream is(&buf);
    Trace back;
    ASSERT_TRUE(sac::trace::readTrace(is, back));
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIoSkipTest, TruncatedBodySkipClampsAndFails)
{
    // Header promises 20 records; the body holds 7 whole records plus
    // half of the 8th. skip(10) must report the 7 that exist and set
    // failed() — not seek past EOF and claim 10.
    const Trace t = numberedTrace(20);
    std::string data = serialized(t);
    data.resize(headerBytes("x") + 7 * diskRecordBytes + 9);
    std::stringstream cut(data);
    sac::trace::TraceStreamReader reader;
    ASSERT_TRUE(reader.open(cut));

    EXPECT_EQ(reader.skip(10), 7u);
    EXPECT_TRUE(reader.failed());
    Record r;
    EXPECT_EQ(reader.read(&r, 1), 0u);
}

TEST(TraceIoSkipTest, SkipWithinTruncatedBodyStaysClean)
{
    // Skips that stay inside the surviving records succeed without
    // raising failed(); only outrunning the body is an error.
    const Trace t = numberedTrace(20);
    std::string data = serialized(t);
    data.resize(headerBytes("x") + 7 * diskRecordBytes);
    std::stringstream cut(data);
    sac::trace::TraceStreamReader reader;
    ASSERT_TRUE(reader.open(cut));

    EXPECT_EQ(reader.skip(6), 6u);
    EXPECT_FALSE(reader.failed());
    Record r;
    ASSERT_EQ(reader.read(&r, 1), 1u);
    EXPECT_EQ(r.addr, 6u * 64u);
    // 12 records are still owed but none are present.
    EXPECT_EQ(reader.skip(5), 0u);
    EXPECT_TRUE(reader.failed());
}

TEST(TraceIoSkipTest, FileTraceSourceSkipIsHonest)
{
    const Trace t = numberedTrace(20);
    const std::string path =
        testing::TempDir() + "/sac_trace_skip_test.sactrace";
    ASSERT_TRUE(sac::trace::writeTraceFile(t, path));

    {
        sac::trace::FileTraceSource src(path);
        ASSERT_TRUE(src.ok());
        EXPECT_EQ(src.skip(8), 8u);
        Record r;
        ASSERT_EQ(src.next(&r, 1), 1u);
        EXPECT_EQ(r.addr, 8u * 64u);
        // Clean end of trace: short skip, failed() false.
        EXPECT_EQ(src.skip(100), 11u);
        EXPECT_FALSE(src.failed());
    }

    // Truncate the body mid-record and re-probe: the skip reports
    // only whole surviving records and flags the truncation.
    std::filesystem::resize_file(
        path, headerBytes("x") + 5 * diskRecordBytes + 3);
    sac::trace::FileTraceSource cut(path);
    ASSERT_TRUE(cut.ok());
    EXPECT_EQ(cut.skip(20), 5u);
    EXPECT_TRUE(cut.failed());
    std::filesystem::remove(path);
}

} // namespace
