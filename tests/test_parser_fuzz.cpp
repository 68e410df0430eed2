// Adversarial parser tests for every text format that crosses a trust
// boundary, all read by one strict reader (common/textio): safety
// certificates (`oic-cert v1`), serialized agents (`oic-agent v1` /
// `oic-mlp v1`), campaign checkpoints (`oic-mc-checkpoint v2`, the `stats`
// and `splitting` sections) and the `oic-serve v1` request and response
// batches, plus the `--levels` ladder grammar.  All are loaded from
// user-supplied paths (--cert-dir, --policies drl:<path>, --checkpoint),
// sockets or flags, so a corrupted, truncated, or hostile input must reject
// with a clean oic::Error -- never crash, hang, or allocate unboundedly.
// The whole suite runs under the CI Sanitize matrix leg, so any UB a
// mutation provokes fails the ASan/UBSan job even when the parse
// "succeeds".
//
// One mutation generator runs against every format's valid documents:
// truncation sweeps, non-finite and overflow spellings on every numeric
// field, signed / fractional / hex / overflowing spellings on every
// integer field, duplicated and missing lines, and oversized counts.  A
// small per-format schema says which tokens are integer fields and which
// of those are capped counts.  Hand-written cases that need a semantic
// invariant (ladder monotonicity, frontier consistency, ...) follow it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "cert/io.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/textio.hpp"
#include "eval/registry.hpp"
#include "mc/campaign.hpp"
#include "mc/splitting.hpp"
#include "rl/serialize.hpp"
#include "serve/api.hpp"

namespace {

using oic::Rng;

// ---------------------------------------------------------------- corpus

/// One valid certificate document (cheapest registry plant, synthesized
/// once per binary).
const std::string& cert_doc() {
  static const std::string doc = [] {
    const auto model = oic::eval::ScenarioRegistry::builtin().make_model("toy2d");
    const auto cert = oic::cert::synthesize(model);
    std::stringstream ss;
    oic::cert::save_certificate(cert, ss);
    return ss.str();
  }();
  return doc;
}

/// One valid agent document (tiny network, deterministic weights).
const std::string& agent_doc() {
  static const std::string doc = [] {
    Rng rng(11);
    oic::linalg::Vector scale(6);
    for (std::size_t i = 0; i < 6; ++i) scale[i] = 0.5 + 0.1 * i;
    oic::rl::AgentSnapshot snap{"acc", 2, std::move(scale),
                                oic::rl::Mlp({6, 8, 2}, rng)};
    std::stringstream ss;
    oic::rl::save_agent(snap, ss);
    return ss.str();
  }();
  return doc;
}

std::string save(const oic::mc::Checkpoint& ck) {
  std::stringstream ss;
  oic::mc::save_checkpoint(ck, ss);
  return ss.str();
}

/// A checkpoint with a `stats` section: one cell, the baseline plus one
/// policy, every counter non-zero and consistent.
const std::string& stats_ck_doc() {
  static const std::string doc = [] {
    oic::mc::Checkpoint ck;
    ck.fingerprint = 42;
    oic::mc::CellStats cell;
    cell.plant = "toy2d";
    cell.family = "bursts";
    cell.blocks_done = 3;
    cell.episodes = 6;
    const auto stats = [](const char* name) {
      oic::mc::PolicyStats ps;
      ps.name = name;
      ps.episodes = 6;
      ps.violations = 2;
      ps.left_x_episodes = 1;
      ps.steps = 240;
      ps.degraded_steps = 10;
      ps.stale_forced = 3;
      ps.policy_unavail = 2;
      ps.meas_dropped = 5;
      ps.act_dropped = 4;
      for (const double v : {1.5, 2.25, -0.125}) {
        ps.saving.add(v);
        ps.cost.add(3.0 * v);
        ps.skipped.add(v + 4.0);
        ps.degraded.add(0.5);
      }
      return ps;
    };
    cell.baseline = stats("always-run");
    cell.policies.push_back(stats("bang-bang"));
    ck.cells.push_back(std::move(cell));
    return save(ck);
  }();
  return doc;
}

/// A checkpoint with a splitting section mid-progress: one unfinished
/// batch carrying a frontier (stage, frontier, and lin lines all present)
/// and one finished batch -- hand-built from power-of-two levels so the
/// serialized text is byte-stable and string mutations can target exact
/// lines.  One lineage seed is the largest u64.
const std::string& split_ck_doc() {
  static const std::string doc = [] {
    oic::mc::Checkpoint ck;
    ck.fingerprint = 11259375;
    oic::mc::SplitCellResult cell;
    cell.plant = "rare1d";
    cell.family = "analytic";
    cell.seeded_levels = {-0.5, -0.25};
    oic::mc::SplitUnitResult unit;
    unit.policy = "analytic";
    oic::mc::SplitBatch live;
    live.estimate.trials = 4;
    live.estimate.episodes = 8;
    live.estimate.levels = {-0.75, -0.5};
    live.estimate.survivors = {3, 2};
    const std::uint64_t max_seed = std::numeric_limits<std::uint64_t>::max();
    live.frontier = {{{0, 11}}, {{0, 12}, {2, 13}}, {{0, 14}}, {{0, max_seed}}};
    oic::mc::SplitBatch finished;
    finished.estimate.trials = 4;
    finished.estimate.episodes = 12;
    finished.estimate.levels = {-0.75, -0.5, 0.0};
    finished.estimate.survivors = {3, 2, 1};
    finished.done = true;
    unit.state.batches = {live, finished};
    cell.units.push_back(std::move(unit));
    ck.split_cells.push_back(std::move(cell));
    return save(ck);
  }();
  return doc;
}

/// A checkpoint whose splitting cell carries a falsifier outcome (the
/// falsify and params lines).
const std::string& falsify_ck_doc() {
  static const std::string doc = [] {
    oic::mc::Checkpoint ck;
    ck.fingerprint = 7;
    oic::mc::SplitCellResult cell;
    cell.plant = "toy2d";
    cell.family = "bursts";
    cell.falsified = true;
    cell.falsify.worst_level = -0.5;
    cell.falsify.violation = false;
    cell.falsify.episodes = 100;
    cell.falsify.suggested_levels = {-0.75, -0.5};
    oic::mc::MixtureParams p;
    p.label = "fuzz";
    p.lo = -1.0;
    p.hi = 1.0;
    cell.falsify.worst = p;
    ck.split_cells.push_back(std::move(cell));
    return save(ck);
  }();
  return doc;
}

/// Every request verb and both decide shapes (doubles in the writer's
/// shortest round-trip spelling, subnormal included).
const std::string kRequestDoc =
    "oic-serve v1\n"
    "requests 5\n"
    "open 1 session 7 plant toy2d policy bang-bang\n"
    "decide 2 session 7 x 2 0.1 -0.3333333333333333\n"
    "decide 3 session 7 u 1 -2.5e-13 x 2 1e-300 5e-324\n"
    "close 4 session 7\n"
    "reload 5\n"
    "end\n";

const std::string kResponseDoc =
    "oic-serve v1\n"
    "responses 5\n"
    "opened 1 session 7\n"
    "decision 2 session 7 z 0 forced 1\n"
    "closed 4 session 7\n"
    "reloaded 5 certs 2 agents 1\n"
    "error 6 message unknown session 9 (several words)\n"
    "end\n";

// ---------------------------------------------------------------- formats

/// What the generator may do to one token.
enum class Kind {
  kOther,    ///< tag, word, free text: left alone
  kFinite,   ///< a double field (when the token is numeric at all)
  kInteger,  ///< a u64 field of any value (ids, seeds, counters)
  kCount,    ///< a capped u64 count (sizes, dimensions, section lengths)
};

using Line = std::vector<std::string>;

/// One format under test: its valid documents, a loader (true = a
/// document was accepted) and the integer-field schema.
struct Format {
  const char* name;
  std::vector<std::string> docs;
  bool (*load)(const std::string& text);
  Kind (*kind)(const Line& line, std::size_t i);
};

Kind cert_kind(const Line& t, std::size_t i) {
  const std::string& tag = t[0];
  if (tag == "vector" || tag == "tightened:" || tag == "ladder:") {
    return i == 1 ? Kind::kCount : Kind::kFinite;
  }
  if (tag == "matrix" || tag == "polytope") return i <= 2 ? Kind::kCount : Kind::kFinite;
  if (tag == "plant:" || tag == "model-hash:" || tag == "payload-hash:") {
    return Kind::kOther;
  }
  return Kind::kFinite;
}

Kind agent_kind(const Line& t, std::size_t) {
  if (t[0] == "memory:" || t[0] == "sizes:") return Kind::kCount;
  if (t[0] == "plant:") return Kind::kOther;
  return Kind::kFinite;
}

Kind checkpoint_kind(const Line& t, std::size_t i) {
  const std::string& tag = t[0];
  const bool last = i + 1 == t.size();
  if (tag == "fingerprint") return Kind::kInteger;
  if (tag == "cells" || tag == "splitting" || tag == "frontier") return Kind::kCount;
  if (tag == "cell") return i == 5 ? Kind::kCount : Kind::kInteger;
  if (tag == "stats") {
    // name, nine counters, then four accumulators of (n mean m2 min max).
    return (i <= 10 || (i - 11) % 5 == 0) ? Kind::kInteger : Kind::kFinite;
  }
  if (tag == "scell") {
    if (i == 3) return Kind::kInteger;
    return (i == 4 || last) ? Kind::kCount : Kind::kFinite;
  }
  if (tag == "falsify") {
    if (i == 2 || i == 3) return Kind::kInteger;
    return i == 4 ? Kind::kCount : Kind::kFinite;
  }
  if (tag == "params") {
    if (i == 8 || i == 9) return Kind::kInteger;
    return i == 14 ? Kind::kCount : Kind::kFinite;
  }
  if (tag == "unit" || tag == "batch") return last ? Kind::kCount : Kind::kInteger;
  if (tag == "stage") return i == 2 ? Kind::kInteger : Kind::kFinite;
  if (tag == "lin") return i == 1 ? Kind::kCount : Kind::kInteger;
  return Kind::kFinite;
}

Kind request_kind(const Line& t, std::size_t i) {
  if (t[0] == "requests") return Kind::kCount;
  if (t[i - 1] == "u" || t[i - 1] == "x") return Kind::kCount;
  return (i == 1 || t[i - 1] == "session") ? Kind::kInteger : Kind::kFinite;
}

Kind response_kind(const Line& t, std::size_t i) {
  if (t[0] == "responses") return Kind::kCount;
  if (t[0] == "error") return i == 1 ? Kind::kInteger : Kind::kOther;
  return Kind::kInteger;
}

/// A whole-file format's loader.
template <auto kLoad>
bool document(const std::string& text) {
  std::stringstream ss(text);
  (void)kLoad(ss);
  return true;
}

/// A serve batch reader (false = clean end of stream).
template <class T, auto kRead>
bool batch(const std::string& text) {
  std::stringstream ss(text);
  std::vector<T> out;
  return kRead(ss, out);
}

std::vector<std::string> checkpoint_docs() {
  return {stats_ck_doc(), split_ck_doc(), falsify_ck_doc()};
}

using oic::mc::load_checkpoint;
using oic::serve::read_request_batch;
using oic::serve::read_response_batch;
using oic::serve::Request;
using oic::serve::Response;

const std::vector<Format>& formats() {
  static const std::vector<Format> all = {
      {"cert", {cert_doc()}, document<oic::cert::load_certificate>, cert_kind},
      {"agent", {agent_doc()}, document<oic::rl::load_agent>, agent_kind},
      {"checkpoint", checkpoint_docs(), document<load_checkpoint>, checkpoint_kind},
      {"requests", {kRequestDoc}, batch<Request, read_request_batch>, request_kind},
      {"responses", {kResponseDoc}, batch<Response, read_response_batch>, response_kind},
  };
  return all;
}

// -------------------------------------------------------------- generator

/// One whitespace-delimited token of a document and its field kind.
struct Token {
  std::size_t begin = 0;
  std::size_t end = 0;
  Kind kind = Kind::kOther;
};

std::vector<std::string> lines_of(const std::string& doc) {
  std::vector<std::string> lines;
  std::istringstream ss(doc);
  for (std::string line; std::getline(ss, line);) lines.push_back(line);
  return lines;
}

std::vector<Token> tokens_of(const Format& f, const std::string& doc) {
  std::vector<Token> out;
  std::size_t line_start = 0;
  for (const std::string& line : lines_of(doc)) {
    // The writers separate tokens with single blanks.
    Line words;
    std::vector<std::size_t> starts;
    for (std::size_t at = 0; at < line.size();) {
      const std::size_t end = std::min(line.find(' ', at), line.size());
      starts.push_back(line_start + at);
      words.push_back(line.substr(at, end - at));
      at = end + 1;
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
      // A line led by a number is a payload row (matrix, polytope, weights).
      Kind k = i == 0 ? Kind::kFinite : f.kind(words, i);
      double v = 0.0;
      if (!oic::textio::parse_finite(words[i], v)) k = Kind::kOther;
      out.push_back(Token{starts[i], starts[i] + words[i].size(), k});
    }
    line_start += line.size() + 1;
  }
  return out;
}

std::string splice(const std::string& doc, const Token& t, const std::string& repl) {
  return doc.substr(0, t.begin) + repl + doc.substr(t.end);
}

/// False when the loader accepted the text; a reject is an oic::Error (or,
/// for the serve batches, a clean end of stream).  Anything else escapes
/// and fails the test.
bool accepts(const Format& f, const std::string& text) {
  try {
    return f.load(text);
  } catch (const oic::Error&) {
    return false;
  }
}

/// Runs `body(format, doc)` over every document of every format.
template <class Body>
void for_each_doc(Body body) {
  for (const Format& f : formats()) {
    for (const std::string& doc : f.docs) {
      SCOPED_TRACE(std::string(f.name) + " document starting '" +
                   doc.substr(0, doc.find('\n')) + "'");
      body(f, doc);
    }
  }
}

/// Replace every token of the given kinds, in turn, with each spelling.
void expect_token_mutations_reject(std::initializer_list<Kind> kinds,
                                   std::initializer_list<const char*> spellings) {
  for_each_doc([&](const Format& f, const std::string& doc) {
    std::size_t mutated = 0;
    for (const Token& t : tokens_of(f, doc)) {
      if (std::find(kinds.begin(), kinds.end(), t.kind) == kinds.end()) continue;
      ++mutated;
      for (const char* bad : spellings) {
        EXPECT_FALSE(accepts(f, splice(doc, t, bad)))
            << "'" << doc.substr(t.begin, t.end - t.begin) << "' at byte " << t.begin
            << " -> " << bad;
      }
    }
    EXPECT_GT(mutated, 0u) << "the schema found no field to mutate";
  });
}

TEST(ParserFuzz, ValidDocumentsRoundTrip) {
  for_each_doc([](const Format& f, const std::string& doc) {
    EXPECT_TRUE(accepts(f, doc));
  });
  // The writers reproduce every document byte for byte.
  std::stringstream cert_in(cert_doc()), cert_out;
  oic::cert::save_certificate(oic::cert::load_certificate(cert_in), cert_out);
  EXPECT_EQ(cert_doc(), cert_out.str());
  std::stringstream agent_in(agent_doc()), agent_out;
  oic::rl::save_agent(oic::rl::load_agent(agent_in), agent_out);
  EXPECT_EQ(agent_doc(), agent_out.str());
  for (const std::string& doc : {stats_ck_doc(), split_ck_doc(), falsify_ck_doc()}) {
    std::stringstream in(doc);
    EXPECT_EQ(doc, save(oic::mc::load_checkpoint(in)));
  }
  std::stringstream req_in(kRequestDoc), req_out;
  std::vector<oic::serve::Request> reqs;
  ASSERT_TRUE(oic::serve::read_request_batch(req_in, reqs));
  oic::serve::write_request_batch(reqs, req_out);
  EXPECT_EQ(kRequestDoc, req_out.str());
  std::stringstream resp_in(kResponseDoc), resp_out;
  std::vector<oic::serve::Response> resps;
  ASSERT_TRUE(oic::serve::read_response_batch(resp_in, resps));
  oic::serve::write_response_batch(resps, resp_out);
  EXPECT_EQ(kResponseDoc, resp_out.str());
}

TEST(ParserFuzz, EveryTruncationRejects) {
  // Any cut that loses part of the end sentinel (or anything before it)
  // must reject; cuts beyond it only strip trailing whitespace, which is
  // a complete document.  Up to ~1000 cuts stride through the body (every
  // byte of a small document), plus every byte of the tail (the last
  // payload rows and the sentinel itself).
  for_each_doc([](const Format& f, const std::string& doc) {
    const std::size_t sentinel_end = doc.rfind("end") + 3;
    const std::size_t stride = doc.size() / 1000 + 1;
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n < sentinel_end; n += stride) cuts.push_back(n);
    for (std::size_t n = sentinel_end > 64 ? sentinel_end - 64 : 0; n < sentinel_end;
         ++n) {
      cuts.push_back(n);
    }
    for (const std::size_t n : cuts) {
      EXPECT_FALSE(accepts(f, doc.substr(0, n))) << "truncation at byte " << n;
    }
  });
}

TEST(ParserFuzz, NonFiniteAndOverflowFieldsReject) {
  expect_token_mutations_reject({Kind::kFinite, Kind::kInteger, Kind::kCount},
                                {"nan", "inf", "-inf", "1e999", "0x1p9999", "bogus"});
}

TEST(ParserFuzz, SignedFractionalHexAndOverflowingIntegersReject) {
  // u64 fields are digits only over the full range: a sign, a fraction, a
  // hex spelling or 2^64 is corruption, not a number to round or wrap.
  expect_token_mutations_reject({Kind::kInteger, Kind::kCount},
                                {"-1", "+1", "1.5", "0x10", "18446744073709551616"});
}

TEST(ParserFuzz, OversizedCountsRejectWithoutAllocating) {
  // Every count is capped before anything is allocated for it; a reader
  // that reserved first would exhaust memory here (under ASan: abort).
  expect_token_mutations_reject({Kind::kCount}, {"99999999999", "18446744073709551615"});
}

TEST(ParserFuzz, DuplicatedAndMissingLinesReject) {
  // Each reader expects a fixed sequence of lines, so repeating or dropping
  // any line derails it.  The final `end` is not duplicated: what follows
  // a complete document is not part of it.
  for_each_doc([](const Format& f, const std::string& doc) {
    const std::vector<std::string> lines = lines_of(doc);
    for (std::size_t at = 0; at < lines.size(); ++at) {
      std::string duplicated, missing;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        duplicated += lines[i] + '\n';
        if (i == at && at + 1 < lines.size()) duplicated += lines[i] + '\n';
        if (i != at) missing += lines[i] + '\n';
      }
      if (at + 1 < lines.size()) {
        EXPECT_FALSE(accepts(f, duplicated)) << "duplicated line " << at + 1;
      }
      EXPECT_FALSE(accepts(f, missing)) << "missing line " << at + 1;
    }
  });
}

/// The message a rejected load throws ("" when it does not throw).
template <class Load>
std::string error_of(Load load) {
  try {
    load();
  } catch (const oic::Error& e) {
    return e.what();
  }
  return "";
}

std::string replace_first(const std::string& doc, const std::string& from,
                          const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return doc.substr(0, at) + to + doc.substr(at + from.size());
}

TEST(ParserFuzz, ErrorsReportFormatLineAndColumn) {
  const auto starts_with = [](const std::string& what, const std::string& prefix) {
    EXPECT_EQ(what.substr(0, prefix.size()), prefix) << what;
  };
  // Line 5 of a certificate is the k-lqr matrix header, "matrix 1 2".
  std::stringstream cert(replace_first(cert_doc(), "k-lqr:\nmatrix 1 2",
                                       "k-lqr:\nmatrix 1 +2"));
  starts_with(error_of([&] { oic::cert::load_certificate(cert); }), "oic-cert:5:10: ");
  std::stringstream agent(replace_first(agent_doc(), "memory: 2", "memory: -2"));
  starts_with(error_of([&] { oic::rl::load_agent(agent); }), "oic-agent:3:9: ");
  std::stringstream ck(replace_first(stats_ck_doc(), "cell toy2d bursts 3",
                                     "cell toy2d bursts -1"));
  starts_with(error_of([&] { oic::mc::load_checkpoint(ck); }),
              "oic-mc-checkpoint:4:19: ");
  std::stringstream req(replace_first(kRequestDoc, "0.1 -0.3333333333333333",
                                      "0.1 nan"));
  std::vector<oic::serve::Request> reqs;
  starts_with(error_of([&] { oic::serve::read_request_batch(req, reqs); }),
              "oic-serve:4:28: ");
  std::stringstream resp(replace_first(kResponseDoc, "closed 4",
                                       "closed 18446744073709551616"));
  std::vector<oic::serve::Response> resps;
  starts_with(error_of([&] { oic::serve::read_response_batch(resp, resps); }),
              "oic-serve:5:8: ");
}

// -------------------------------------------------- hand-written cases

void expect_cert_rejects(const std::string& text, const std::string& why) {
  std::stringstream ss(text);
  EXPECT_THROW(oic::cert::load_certificate(ss), oic::Error) << why;
}

void expect_agent_rejects(const std::string& text, const std::string& why) {
  std::stringstream ss(text);
  EXPECT_THROW(oic::rl::load_agent(ss), oic::Error) << why;
}

void expect_ck_rejects(const std::string& text, const std::string& why) {
  std::stringstream ss(text);
  EXPECT_THROW(oic::mc::load_checkpoint(ss), oic::Error) << why;
}

TEST(CertFuzz, SplicedStrayObjectRejects) {
  const std::vector<std::string> lines = lines_of(cert_doc());
  std::string spliced = lines[0] + "\n" + lines[1] + "\n" + "vector 1 0\n";
  for (std::size_t i = 2; i < lines.size(); ++i) spliced += lines[i] + "\n";
  expect_cert_rejects(spliced, "spliced stray vector");
}

TEST(CertFuzz, OversizedDimensionHeadersRejectWithoutAllocating) {
  // Direct io-layer probes: the count cap must fire before any payload
  // allocation (a failure here under ASan would be an OOM/timeout).
  for (const char* text : {
           "vector 99999999 0",
           "matrix 99999999 99999999 0",
           "matrix 4097 4097 0",
           "polytope 99999999 99999999 0",
           "polytope 5000 5000 0",
       }) {
    oic::textio::Reader in("oic-cert", text);
    const std::string what(text);
    if (what.rfind("vector", 0) == 0) {
      EXPECT_THROW(oic::cert::read_vector(in), oic::Error) << text;
    } else if (what.rfind("matrix", 0) == 0) {
      EXPECT_THROW(oic::cert::read_matrix(in), oic::Error) << text;
    } else {
      EXPECT_THROW(oic::cert::read_polytope(in), oic::Error) << text;
    }
  }
}

TEST(AgentFuzz, HeaderAbuseRejects) {
  const std::string& doc = agent_doc();
  // Memory bounds (0 and over the cap are well-formed u64 tokens).
  for (const char* mem : {"0", "999999999", "-3", "nan"}) {
    expect_agent_rejects(replace_first(doc, "memory: 2", std::string("memory: ") + mem),
                         std::string("memory -> ") + mem);
  }
}

TEST(AgentFuzz, OversizedNetworkShapesReject) {
  const std::string tail = "\n0.0\n";  // whatever follows, the header must throw
  for (const char* sizes : {"sizes: 99999 99999", "sizes: 0 4", "sizes: 4",
                            "sizes: 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 "
                            "4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 "
                            "4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4"}) {
    std::stringstream ss(std::string("oic-mlp v1\n") + sizes + tail);
    EXPECT_THROW(oic::rl::load_mlp(ss), oic::Error) << sizes;
  }
}

TEST(SplitCheckpointFuzz, StructuralAbuseRejects) {
  const std::string& doc = split_ck_doc();
  const auto reject = [&](const std::string& from, const std::string& to) {
    expect_ck_rejects(replace_first(doc, from, to), from + " -> " + to);
  };
  // Counters breaking their invariants.
  reject("stage -0.75 3", "stage -0.75 9");      // survivors > trials
  reject("stage -0.5 2\nfrontier", "stage 0.5 2\nfrontier");  // level > 0
  reject("stage -0.75 3\nstage -0.5 2\nfrontier",
         "stage -0.5 3\nstage -0.75 2\nfrontier");  // non-monotone ladder
  // Allocation bombs in the size headers.
  reject("splitting 1", "splitting 999999");
  reject("analytic 0 2 -0.5", "analytic 0 99 -0.5");  // oversized seeded ladder
  reject("unit analytic 0 4 2", "unit analytic 0 4 9999");  // batch count
  reject("batch 0 8 2", "batch 0 8 9999");                  // stage count
  reject("lin 2 0 12 2 13", "lin 9999 0 12 2 13");          // lineage entries
  // Frontier / done-flag consistency.
  reject("frontier 4", "frontier 3");        // neither 0 nor the trial count
  reject("unit analytic 0 4 2", "unit analytic 0 0 2");  // batches, 0 trials
  reject("unit analytic 0 4 2", "unit analytic 1 4 2");  // done unit, live batch
  reject("frontier 0", "frontier 4");  // a done batch cannot carry a frontier
  // Malformed lineages.
  reject("lin 2 0 12 2 13", "lin 2 5 12 2 13");  // does not start at step 0
  reject("lin 2 0 12 2 13", "lin 2 0 12 0 13");  // non-increasing steps
}

TEST(SplitCheckpointFuzz, FalsifySectionAbuseRejects) {
  const std::string& doc = falsify_ck_doc();
  const auto reject = [&](const std::string& from, const std::string& to) {
    expect_ck_rejects(replace_first(doc, from, to), from + " -> " + to);
  };
  reject("falsify -0.5 0", "falsify -0.5 1");  // flag disagrees with objective
  reject("falsify -0.5 0 100 2", "falsify -0.5 0 100 99");  // oversized ladder
  reject("falsify -0.5 0 100 2 -0.75 -0.5",
         "falsify -0.5 0 100 2 -0.5 -0.75");  // non-monotone suggestion
  // The params line re-runs the full MixtureProfile validation on load.
  reject("params fuzz 0 -1 1", "params fuzz 5 -1 1");   // center outside band
  reject("params fuzz 0 -1 1", "params fuzz 0 1 -1");   // inverted band
  // No units follow a falsify-only cell; the sine count is the last token
  // of the params line.
  reject(" 0\nend", " 99\nend");
}

// --------------------------------------------------- level ladders

TEST(SplitLevelsFuzz, HostileLadderStringsReject) {
  for (const char* text :
       {"", ",", "-0.5,,-0.25", "--0.5", "-1e999", "-0.5;-0.25", "-0.5 -0.25",
        "0x1p-1", "-0.25,-0.25", "-0.1,-0.2", "1.0", "-0.5,-0.25,0"}) {
    EXPECT_THROW(oic::mc::parse_levels(text), oic::Error) << "'" << text << "'";
  }
  // Hex and blank-led spellings: the checkpoint reads levels by the same
  // number rule, so one ladder has one grammar wherever it is read.
  for (const char* text : {"-0x1p-1,-0x1p-2", " -0.5,-0.25", "-0.5, -0.25", "+-0.5"}) {
    EXPECT_THROW(oic::mc::parse_levels(text), oic::Error) << "'" << text << "'";
  }
  // 65 strictly increasing negative levels: one past the cap.
  std::string many = "-65";
  for (int i = 64; i >= 1; --i) many += "," + std::to_string(-i);
  EXPECT_THROW(oic::mc::parse_levels(many), oic::Error) << "65 levels";
}

}  // namespace
