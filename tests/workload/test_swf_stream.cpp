// Parity and property tests for the chunked streaming SWF reader
// (workload/swf_stream.h): the production `read_swf` must be byte-identical
// to `read_swf_reference` (the historical getline+istringstream path, kept
// as the parity oracle) for every chunk size — including 1 byte, where
// every line is carried across refill boundaries — and on the bundled
// trace fixtures.
#include "workload/swf_stream.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "workload/swf.h"
#include "workload/trace_catalog.h"

namespace sdsched {
namespace {

// Deliberately awkward input: headers, comments, a blank line, a CRLF row,
// a cancelled row (dropped by default), failed rows with the archives'
// -1/0 placeholders (kept + sanitized), a row with only the 12 leading
// fields, and rows long enough that small chunks split them mid-field.
constexpr const char* kAwkwardSwf =
    "; Synthetic parity sample\n"
    "; MaxNodes: 64\n"
    "; MaxProcs: 512\n"
    "\n"
    "1 0 10 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n"
    "2 50 -1 300 16 -1 -1 -1 600 -1 1 6 -1 -1 -1 -1 -1 -1\r\n"
    "3 60 -1 30 4 -1 -1 4 -1 -1 5 7 -1 -1 -1 -1 -1 -1\n"
    "4 70 -1 -1 4 -1 -1 4 -1 -1 0 8 -1 -1 -1 -1 -1 -1\n"
    "5 -5 -1 0 4 -1 -1 4 50 -1 0 8 -1 -1 -1 -1 -1 -1\n"
    "6 200 -1 40 2 -1 -1 2 80 -1 1 9\n"
    "7 200 -1 41 2 -1 -1 2 81 -1 1 9 -1 -1 -1 -1 -1 -1\n"
    "8 200 -1 42 2 -1 -1 2 82 -1 1 9 -1 -1 -1 -1 -1 -1\n"
    "9 1000000 -1 123456 128 -1 -1 128 654321 -1 1 10 -1 -1 -1 -1 -1 -1\n";

/// The canonical byte form both readers must agree on: the serialized
/// workload plus the header fields the serialization does not carry.
std::string canonical(const Workload& workload) {
  std::ostringstream out;
  out << workload.info().name << '|' << workload.info().system_nodes << '|'
      << workload.info().cores_per_node << '\n';
  write_swf(out, workload);
  return out.str();
}

// Every chunk size from 1 byte to past the whole sample: each boundary
// position splits some row (and at size 1, every row), so the carry path
// is exercised at every possible split point.
TEST(SwfStream, ChunkSizeParitySweep) {
  const std::string text = kAwkwardSwf;
  std::istringstream reference_in(text);
  const Workload reference = read_swf_reference(reference_in);
  const std::string want = canonical(reference);
  ASSERT_EQ(reference.size(), 8u);  // cancelled row dropped, failed rows kept

  for (std::size_t chunk = 1; chunk <= text.size() + 7; ++chunk) {
    std::istringstream in(text);
    const Workload chunked = read_swf(in, SwfReadOptions{}, chunk);
    ASSERT_EQ(canonical(chunked), want) << "chunk size " << chunk;
  }
}

TEST(SwfStream, ParityUnderNonDefaultOptions) {
  SwfReadOptions options;
  options.skip_failed = true;
  options.skip_cancelled = false;
  options.sanitize = false;
  options.default_malleability = MalleabilityClass::Rigid;
  const std::string text = kAwkwardSwf;
  std::istringstream reference_in(text);
  const Workload reference = read_swf_reference(reference_in, options);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::istringstream in(text);
    ASSERT_EQ(canonical(read_swf(in, options, chunk)), canonical(reference))
        << "chunk size " << chunk;
  }
}

// The acceptance pin: on both bundled trace fixtures the streaming reader
// and the reference reader produce byte-identical Workloads.
TEST(SwfStream, BundledFixturesParity) {
  for (const TraceInfo& info : trace_catalog()) {
    const std::string path = default_fixture_path(info);
    std::ifstream probe(path);
    ASSERT_TRUE(probe.good()) << "missing bundled fixture " << path;

    std::ifstream chunked_in(path, std::ios::binary);
    const Workload chunked = read_swf(chunked_in);
    std::ifstream reference_in(path, std::ios::binary);
    const Workload reference = read_swf_reference(reference_in);
    EXPECT_GT(chunked.size(), 2000u) << path;
    EXPECT_EQ(canonical(chunked), canonical(reference)) << path;
  }
}

TEST(SwfStream, StatsCountRowsFiltersAndBursts) {
  std::istringstream in(kAwkwardSwf);
  SwfJobStream stream(in, SwfReadOptions{});
  JobSpec spec;
  std::size_t delivered = 0;
  while (stream.next(spec)) ++delivered;
  const SwfStreamStats& stats = stream.stats();
  EXPECT_EQ(delivered, 8u);
  EXPECT_EQ(stats.rows, 8u);
  EXPECT_EQ(stats.rows_filtered, 1u);  // the cancelled row
  EXPECT_EQ(stats.lines, 13u);         // headers, blank and data lines alike
  EXPECT_EQ(stats.bytes_consumed, std::string(kAwkwardSwf).size());
  EXPECT_EQ(stats.first_submit, 0);
  EXPECT_EQ(stats.last_submit, 1000000);
  // Rows 6/7/8 share submit 200: one 3-row group = 2 same-second followers.
  EXPECT_EQ(stats.same_second_submits, 2u);
  EXPECT_EQ(stats.max_submit_burst, 3u);
}

// The sanitize warning fires once per stream no matter how many rows were
// clamped — and only after the scan ends, with the full count.
TEST(SwfStream, SanitizeWarnsOnceAfterDrain) {
  std::istringstream in(kAwkwardSwf);
  {
    SwfJobStream stream(in, SwfReadOptions{});
    JobSpec spec;
    std::size_t seen = 0;
    while (stream.next(spec)) {
      ++seen;
      // Mid-stream, clamps accumulate but the warning has not fired.
      EXPECT_EQ(stream.stats().sanitize_warnings, 0u) << "row " << seen;
    }
    EXPECT_EQ(stream.stats().sanitized, 2u);  // rows 4 and 5
    EXPECT_EQ(stream.stats().sanitize_warnings, 1u);
  }
}

// An abandoned scan (destructor without drain) still warns exactly once —
// the contract the whole-file reader's callers rely on.
TEST(SwfStream, SanitizeWarnsOnceOnAbandonedScan) {
  std::istringstream in(
      "1 -5 -1 100 8 -1 -1 8 30 -1 1 5 -1 -1 -1 -1 -1 -1\n"
      "2 0 -1 100 8 -1 -1 8 300 -1 1 5 -1 -1 -1 -1 -1 -1\n");
  SwfStreamStats stats;
  {
    SwfJobStream stream(in, SwfReadOptions{});
    JobSpec spec;
    ASSERT_TRUE(stream.next(spec));  // consume only the clamped row
    stats = stream.stats();
    EXPECT_EQ(stats.sanitized, 1u);
    EXPECT_EQ(stats.sanitize_warnings, 0u);
  }
  // The warning fired in the destructor; stats was captured before, so the
  // observable contract is simply that nothing fired early.
}

// A soak run opens one stream per (trace, tier) read and every one clamps
// the same archive rows: the per-stream warn-once counter still ticks on
// each stream (the stats contract above is unchanged), but the *emission*
// is deduped process-wide — the second and later clamping streams stay
// silent instead of repeating an identical message per tier.
TEST(SwfStream, SanitizeWarningEmissionDedupedAcrossStreams) {
  constexpr const char* kClampingRow = "1 -5 -1 100 8 -1 -1 8 30 -1 1 5\n";
  SwfJobStream::reset_sanitize_warning_guard();
  EXPECT_EQ(SwfJobStream::sanitize_warnings_emitted(), 0u);

  for (int pass = 0; pass < 3; ++pass) {
    std::istringstream in(kClampingRow);
    SwfJobStream stream(in, SwfReadOptions{});
    JobSpec spec;
    while (stream.next(spec)) {
    }
    EXPECT_EQ(stream.stats().sanitized, 1u);
    EXPECT_EQ(stream.stats().sanitize_warnings, 1u)
        << "per-stream warn-once contract broke on pass " << pass;
    EXPECT_EQ(SwfJobStream::sanitize_warnings_emitted(), 1u)
        << "process-wide dedupe broke on pass " << pass;
  }

  // The guard re-arms for the next soak run (or test).
  SwfJobStream::reset_sanitize_warning_guard();
  EXPECT_EQ(SwfJobStream::sanitize_warnings_emitted(), 0u);
}

// max_jobs stops the scan where it stands: with a small chunk, the bytes
// consumed stay near the cap — the remainder of the file (here: rows that
// would throw if parsed) is never read.
TEST(SwfStream, MaxJobsStopsWithoutReadingRemainder) {
  std::string text;
  for (int i = 0; i < 4; ++i) {
    text += std::to_string(i + 1) +
            " 0 -1 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n";
  }
  const std::size_t good_bytes = text.size();
  for (int i = 0; i < 200; ++i) {
    text += "this is not an swf row and parsing it would throw\n";
  }

  SwfReadOptions options;
  options.max_jobs = 4;
  std::istringstream in(text);
  constexpr std::size_t kChunk = 32;
  SwfJobStream stream(in, options, kChunk);
  JobSpec spec;
  std::size_t delivered = 0;
  while (stream.next(spec)) ++delivered;
  EXPECT_EQ(delivered, 4u);
  // At most one extra chunk past the last good row is buffered; the
  // malformed tail stays unread (and therefore never throws).
  EXPECT_LE(stream.stats().bytes_consumed, good_bytes + kChunk);
  EXPECT_LT(stream.stats().bytes_consumed, text.size());

  // The whole-file wrapper inherits the early stop.
  std::istringstream whole_in(text);
  EXPECT_EQ(read_swf(whole_in, options, kChunk).size(), 4u);
}

// A file that ends without a trailing newline must still deliver the last
// row, at every chunk size around the boundary.
TEST(SwfStream, FinalLineWithoutNewline) {
  const std::string text =
      "1 0 -1 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n"
      "2 9 -1 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1";
  std::istringstream reference_in(text);
  const Workload reference = read_swf_reference(reference_in);
  ASSERT_EQ(reference.size(), 2u);
  for (std::size_t chunk = 1; chunk <= text.size() + 2; ++chunk) {
    std::istringstream in(text);
    ASSERT_EQ(canonical(read_swf(in, SwfReadOptions{}, chunk)), canonical(reference))
        << "chunk size " << chunk;
  }
}

TEST(SwfStream, MalformedRowThrowsLikeReference) {
  const std::string text = "1 2 3\n";
  std::istringstream in(text);
  EXPECT_THROW(read_swf(in, SwfReadOptions{}, 4), std::runtime_error);
}

/// The error a reader raises on `text`, or "" when it accepts it.
template <typename Read>
std::string error_of(const std::string& text, Read read) {
  std::istringstream in(text);
  try {
    (void)read(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Malformed rows: a 20-digit run time (past long long — istream extraction
// fails on it, so the streaming scan must too instead of wrapping) and a
// non-numeric token. At every chunk size both readers reject the row with
// the same message, naming the field and the token that stopped the scan.
TEST(SwfStream, MalformedRowsRejectedIdenticallyAtEveryChunkSize) {
  const std::string good = "1 0 -1 100 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n";
  const struct {
    std::string row;
    std::string field_and_token;
  } cases[] = {
      {"2 9 -1 99999999999999999999 8 -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n",
       "SWF line 2: field 4: cannot parse '99999999999999999999'"},
      {"2 9 -1 100 n/a -1 -1 8 200 -1 1 5 -1 -1 -1 -1 -1 -1\n",
       "SWF line 2: field 5: cannot parse 'n/a'"},
  };
  for (const auto& c : cases) {
    const std::string text = good + c.row + good;
    const std::string want =
        error_of(text, [](std::istream& in) { return read_swf_reference(in); });
    EXPECT_EQ(want.rfind(c.field_and_token, 0), 0u) << want;
    for (std::size_t chunk = 1; chunk <= text.size() + 7; ++chunk) {
      const std::string got = error_of(
          text, [chunk](std::istream& in) { return read_swf(in, SwfReadOptions{}, chunk); });
      ASSERT_EQ(got, want) << "chunk size " << chunk;
    }
  }
}

// Past the 11 required fields a bad token only ends the row's scan, in
// both readers alike: an overflowing trailing field reads as 0, not as the
// clamped limit istream stores on overflow. An overflowing header value is
// no header in either reader.
TEST(SwfStream, OverflowInOptionalFieldParsesIdentically) {
  const std::string text =
      "; MaxNodes: 99999999999999999999\n"
      "1 0 -1 100 8 -1 -1 8 200 -1 1 99999999999999999999 -1 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 8 -1 -1 8 200 -1 1 -99999999999999999999\n"
      "3 6 -1 100 8 -1 -1 8 200 -1 1 -9223372036854775808\n";
  std::istringstream reference_in(text);
  const Workload reference = read_swf_reference(reference_in);
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_EQ(reference.info().system_nodes, 0);
  EXPECT_EQ(reference.jobs()[0].user_id, 0);
  EXPECT_EQ(reference.jobs()[1].user_id, 0);
  for (std::size_t chunk = 1; chunk <= text.size() + 2; ++chunk) {
    std::istringstream in(text);
    ASSERT_EQ(canonical(read_swf(in, SwfReadOptions{}, chunk)), canonical(reference))
        << "chunk size " << chunk;
  }
}

}  // namespace
}  // namespace sdsched
