// Tests for the certificate layer: round-trippable vector/matrix/polytope
// I/O, `oic-cert v1` serialization (wrong-version / truncation / hash-
// mismatch rejection), the store's load-or-synthesize cache and its speed
// over synthesis, the golden guarantee that loading reproduces fresh
// synthesis bit for bit on every registry plant, and the certified
// burst-skip mode (default off must be bit-identical; engaged bursts must
// stay inside XI).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cert/io.hpp"
#include "cert/store.hpp"
#include "common/error.hpp"
#include "core/policy.hpp"
#include "eval/engine.hpp"
#include "eval/plants/second_order.hpp"
#include "eval/registry.hpp"
#include "eval/sweep.hpp"

namespace {

namespace fs = std::filesystem;

using oic::Rng;
using oic::cert::bit_equal;
using oic::cert::PlantCertificate;
using oic::cert::PlantModel;
using oic::eval::ScenarioRegistry;
using oic::linalg::Matrix;
using oic::linalg::Vector;
using oic::poly::HPolytope;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Synthesis runs many LPs; share one certificate per plant across tests,
// with the time its synthesis took.
struct Synthesized {
  PlantCertificate cert;
  double seconds = 0.0;
};

const Synthesized& synthesized(const std::string& id) {
  static std::map<std::string, Synthesized> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    const PlantModel model = ScenarioRegistry::builtin().make_model(id);
    const auto t0 = Clock::now();
    PlantCertificate cert = oic::cert::synthesize(model);
    it = cache.emplace(id, Synthesized{std::move(cert), seconds_since(t0)}).first;
  }
  return it->second;
}

const PlantCertificate& shared_cert(const std::string& id) {
  return synthesized(id).cert;
}

std::string fresh_dir(const char* name) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("oic-cert-test-") + name);
  fs::remove_all(dir);
  return dir.string();
}

// ------------------------------------------------------------------- io

TEST(CertIo, VectorAndMatrixRoundTripBitExact) {
  // Values chosen to stress the text round trip: non-terminating binary
  // fractions, negative zero, denormal-scale and large magnitudes.
  const Vector v{0.1, -1.0 / 3.0, -0.0, 1e-300, -9.87654321e17, 42.0};
  Matrix m(2, 3);
  m(0, 0) = 0.1;
  m(0, 1) = 2.0 / 7.0;
  m(0, 2) = -1e-17;
  m(1, 0) = 123456789.123456789;
  m(1, 1) = -0.0;
  m(1, 2) = 3.0;

  std::stringstream ss;
  oic::cert::write_vector(ss, v);
  oic::cert::write_matrix(ss, m);
  const std::string text = ss.str();
  oic::textio::Reader in("oic-cert", text);
  const Vector v2 = oic::cert::read_vector(in);
  const Matrix m2 = oic::cert::read_matrix(in);
  EXPECT_TRUE(bit_equal(v, v2));
  EXPECT_TRUE(bit_equal(m, m2));

  // Empty vector round-trips too.
  std::stringstream se;
  oic::cert::write_vector(se, Vector{});
  const std::string empty = se.str();
  oic::textio::Reader empty_in("oic-cert", empty);
  EXPECT_TRUE(bit_equal(Vector{}, oic::cert::read_vector(empty_in)));
}

TEST(CertIo, PolytopeRoundTripIncludingEmptyAndSingleRow) {
  const HPolytope universe = HPolytope::universe(2);  // zero constraint rows
  const HPolytope single(Matrix{{1.0, -0.5, 0.25}}, Vector{1.5});
  const HPolytope box = HPolytope::box(Vector{-1.25, -3.5}, Vector{0.1, 7.0});
  for (const HPolytope* p : {&universe, &single, &box}) {
    std::stringstream ss;
    oic::cert::write_polytope(ss, *p);
    const std::string text = ss.str();
    oic::textio::Reader in("oic-cert", text);
    const HPolytope q = oic::cert::read_polytope(in);
    EXPECT_TRUE(bit_equal(*p, q));
    EXPECT_EQ(p->num_constraints(), q.num_constraints());
    EXPECT_EQ(p->dim(), q.dim());
  }
}

TEST(CertIo, RejectsMalformedAndTruncatedPayloads) {
  const auto reader = [](const char* text) {
    return oic::textio::Reader("oic-cert", text);
  };
  {
    auto in = reader("vectr 2 1.0 2.0");
    EXPECT_THROW(oic::cert::read_vector(in), oic::NumericalError);
  }
  {
    auto in = reader("vector 3 1.0 2.0");  // one value short
    EXPECT_THROW(oic::cert::read_vector(in), oic::NumericalError);
  }
  {
    auto in = reader("matrix 2 2 1.0 2.0 3.0");  // truncated
    EXPECT_THROW(oic::cert::read_matrix(in), oic::NumericalError);
  }
  {
    auto in = reader("polytope 1 2 1.0 0.0");  // missing offset
    EXPECT_THROW(oic::cert::read_polytope(in), oic::NumericalError);
  }
  {
    auto in = reader("polytope 99999999999 2");  // absurd count
    EXPECT_THROW(oic::cert::read_polytope(in), oic::NumericalError);
  }
}

// ---------------------------------------------------------- certificate

TEST(Certificate, RoundTripIsBitExactAndVerifiesOnAllRegistryPlants) {
  const auto& registry = ScenarioRegistry::builtin();
  // Production plants only: the test-only analytic bed has no model.
  for (const auto& pid : registry.production_plant_ids()) {
    const PlantModel model = registry.make_model(pid);
    const PlantCertificate& fresh = shared_cert(pid);
    EXPECT_EQ(fresh.plant, pid);
    EXPECT_EQ(fresh.model_hash, oic::cert::model_hash(model)) << pid;

    std::stringstream ss;
    oic::cert::save_certificate(fresh, ss);
    const PlantCertificate loaded = oic::cert::load_certificate(ss);
    EXPECT_TRUE(bit_equal(fresh, loaded)) << pid;

    // The independent re-check accepts both the fresh and the loaded copy.
    EXPECT_NO_THROW(oic::cert::verify(model, fresh)) << pid;
    EXPECT_NO_THROW(oic::cert::verify(model, loaded)) << pid;

    // The ladder's base is the strengthened set itself, bit for bit (the
    // ladder recursion starts from the identical XI), and the chain nests.
    ASSERT_FALSE(fresh.ladder.empty()) << pid;
    EXPECT_TRUE(bit_equal(fresh.ladder.front(), fresh.sets.x_prime)) << pid;
  }
}

TEST(Certificate, RejectsWrongMagicWrongVersionAndTruncation) {
  const PlantCertificate& cert = shared_cert("toy2d");
  std::stringstream ss;
  oic::cert::save_certificate(cert, ss);
  const std::string doc = ss.str();

  {
    std::stringstream bad("oic-agent v1\n" + doc.substr(doc.find('\n') + 1));
    EXPECT_THROW(oic::cert::load_certificate(bad), oic::NumericalError);
  }
  {
    std::stringstream bad("oic-cert v2\n" + doc.substr(doc.find('\n') + 1));
    EXPECT_THROW(oic::cert::load_certificate(bad), oic::NumericalError);
  }
  {
    std::stringstream bad(doc.substr(0, doc.size() / 2));  // mid-payload cut
    EXPECT_THROW(oic::cert::load_certificate(bad), oic::NumericalError);
  }
  {
    // A well-formed prefix missing only the end sentinel is truncated too.
    std::stringstream bad(doc.substr(0, doc.rfind("end")));
    EXPECT_THROW(oic::cert::load_certificate(bad), oic::NumericalError);
  }
  {
    std::stringstream ok(doc);
    EXPECT_NO_THROW(oic::cert::load_certificate(ok));
  }
}

TEST(Certificate, RejectsParsableButCorruptedPayload) {
  // The model hash only guards the synthesis inputs; a flipped digit in a
  // stored set still parses, so the payload hash must catch it.
  const PlantCertificate& cert = shared_cert("toy2d");
  std::stringstream ss;
  oic::cert::save_certificate(cert, ss);
  std::string doc = ss.str();

  // Corrupt the first nonzero digit of the k-lqr payload (the line after
  // the "matrix <rows> <cols>" header).
  const std::size_t header = doc.find("k-lqr:\nmatrix ");
  ASSERT_NE(header, std::string::npos);
  const std::size_t line = doc.find('\n', doc.find('\n', header + 7) + 1) + 1;
  const std::size_t pos = doc.find_first_of("123456789", line);
  ASSERT_NE(pos, std::string::npos);
  doc[pos] = (doc[pos] == '1') ? '2' : '1';

  std::stringstream corrupted(doc);
  EXPECT_THROW(oic::cert::load_certificate(corrupted), oic::NumericalError);
}

TEST(Certificate, HashMismatchIsDetectedAsStale) {
  const auto& registry = ScenarioRegistry::builtin();
  const PlantModel model = registry.make_model("toy2d");
  const PlantCertificate& cert = shared_cert("toy2d");

  // Any synthesis-relevant change to the model must flip the hash.
  PlantModel deeper = model;
  deeper.ladder_depth += 1;
  EXPECT_NE(oic::cert::model_hash(model), oic::cert::model_hash(deeper));
  PlantModel reweighted = model;
  reweighted.rmpc.input_weight *= 2.0;
  EXPECT_NE(oic::cert::model_hash(model), oic::cert::model_hash(reweighted));

  // verify and the runtime assembly both reject the stale pairing.
  EXPECT_THROW(oic::cert::verify(deeper, cert), oic::NumericalError);
  EXPECT_THROW(oic::eval::runtime_from_certificate(reweighted, cert),
               oic::PreconditionError);

  // A doctored hash is caught by the semantic re-check even when it
  // matches the model (the recorded hash is part of what verify trusts).
  PlantCertificate doctored = cert;
  doctored.model_hash ^= 0x1;
  EXPECT_THROW(oic::cert::verify(model, doctored), oic::NumericalError);
}

// ----------------------------------------------------------------- store

TEST(CertStore, LoadOrSynthesizeWithStaleAndCorruptRecovery) {
  const std::string dir = fresh_dir("store");
  const oic::cert::Store store(dir);
  const PlantModel model = ScenarioRegistry::builtin().make_model("toy2d");

  // Cold cache: miss, then get() synthesizes and persists.
  EXPECT_FALSE(store.load_if_fresh(model).has_value());
  const PlantCertificate first = store.get(model);
  EXPECT_TRUE(fs::exists(store.path_for(model)));
  ASSERT_TRUE(store.load_if_fresh(model).has_value());
  EXPECT_TRUE(bit_equal(first, *store.load_if_fresh(model)));

  // A changed model makes the cached file stale: the hit disappears and
  // get() transparently re-synthesizes + rewrites.
  PlantModel deeper = model;
  deeper.ladder_depth += 1;
  EXPECT_FALSE(store.load_if_fresh(deeper).has_value());
  const PlantCertificate rebuilt = store.get(deeper);
  EXPECT_EQ(rebuilt.model_hash, oic::cert::model_hash(deeper));
  EXPECT_TRUE(store.load_if_fresh(deeper).has_value());

  // Corrupt the file: load misses (no throw), get() recovers.
  {
    std::ofstream os(store.path_for(model));
    os << "oic-cert v1\nplant: toy2d\nmodel-hash: 0123456789abcdef\ngarbage";
  }
  EXPECT_FALSE(store.load_if_fresh(model).has_value());
  const PlantCertificate healed = store.get(model);
  EXPECT_TRUE(bit_equal(first, healed));

  const auto rows = store.ls();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].filename, "toy2d.cert");
  EXPECT_EQ(rows[0].plant, "toy2d");
  EXPECT_TRUE(rows[0].readable);
  fs::remove_all(dir);
}

TEST(CertStore, CachedPlantSweepsBitIdenticalToFreshSynthesis) {
  // The golden-load guarantee end to end: an oic_eval-style sweep through
  // cache-built plants must reproduce the fresh-synthesis sweep exactly --
  // on the cold pass (synthesize-and-write) and the warm pass (file load).
  const std::string dir = fresh_dir("golden");
  oic::eval::SweepSpec spec;
  spec.plants = {"toy2d"};
  spec.scenarios = {"sine"};
  spec.policies = {"bang-bang", "periodic-3"};
  spec.cases = 3;
  spec.steps = 30;
  spec.workers = 1;
  const auto& registry = ScenarioRegistry::builtin();
  const auto fresh = oic::eval::run_sweep(registry, spec);

  spec.cert_dir = dir;
  const auto cold = oic::eval::run_sweep(registry, spec);  // writes the cache
  const auto warm = oic::eval::run_sweep(registry, spec);  // loads it
  ASSERT_EQ(fresh.cells.size(), 1u);
  for (const auto* cached : {&cold, &warm}) {
    ASSERT_EQ(cached->cells.size(), 1u);
    EXPECT_EQ(fresh.cells[0].result.savings, cached->cells[0].result.savings);
    EXPECT_EQ(fresh.cells[0].result.mean_skipped,
              cached->cells[0].result.mean_skipped);
  }
  EXPECT_FALSE(cold.safety_violations);
  EXPECT_FALSE(warm.safety_violations);
  fs::remove_all(dir);
}

TEST(CertStore, CacheHitLoadsFasterThanSynthesisOnEveryPlant) {
  // The reason the cache exists: a hit parses one file instead of running
  // the LP-bound synthesis, 100x (quad-alt) to 1600x (acc) faster on a
  // Release build.  On every production plant the fastest of three hits
  // must be 10x faster than the one synthesis shared_cert timed (a get()
  // that re-synthesized would not be), and each hit must reproduce that
  // synthesis bit for bit.
  const std::string dir = fresh_dir("speed");
  const oic::cert::Store store(dir);
  const auto& registry = ScenarioRegistry::builtin();
  for (const auto& pid : registry.production_plant_ids()) {
    const PlantModel model = registry.make_model(pid);
    const Synthesized& fresh = synthesized(pid);
    oic::cert::save_certificate_file(fresh.cert, store.path_for(model));
    ASSERT_TRUE(store.load_if_fresh(model).has_value()) << pid;
    double load_s = fresh.seconds;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const PlantCertificate loaded = store.get(model);
      load_s = std::min(load_s, seconds_since(t0));
      EXPECT_TRUE(bit_equal(fresh.cert, loaded)) << pid;
    }
    EXPECT_LT(10.0 * load_s, fresh.seconds)
        << pid << ": load " << load_s << " s, synthesis " << fresh.seconds << " s";
  }
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- burst

oic::eval::PlantCase& shared_plant(const std::string& id) {
  static std::map<std::string, std::unique_ptr<oic::eval::PlantCase>> plants;
  auto it = plants.find(id);
  if (it == plants.end()) {
    it = plants.emplace(id, ScenarioRegistry::builtin().make_plant(id)).first;
  }
  return *it->second;
}

TEST(Burst, PolicySpecParsing) {
  const auto p = oic::eval::make_policy("burst:3");
  EXPECT_EQ(p->name(), "burst(3)");
  EXPECT_EQ(p->burst_depth(), 3u);
  EXPECT_EQ(oic::eval::make_policy("bang-bang")->burst_depth(), 0u);
  EXPECT_THROW(oic::eval::make_policy("burst:0"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("burst:x"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("burst:"), oic::PreconditionError);
  // Signed payloads must not wrap through strtoul into huge depths.
  EXPECT_THROW(oic::eval::make_policy("burst:-2"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("periodic--2"), oic::PreconditionError);
  EXPECT_THROW(oic::eval::make_policy("burst:3x"), oic::PreconditionError);
}

TEST(Burst, DepthOneMatchesBangBangBitwise) {
  // burst:1 certifies exactly one skip at a time -- the same decision
  // stream as bang-bang, so the paired savings must agree bit for bit.
  oic::eval::SweepSpec spec;
  spec.plants = {"toy2d"};
  spec.scenarios = {"sine", "white"};
  spec.policies = {"bang-bang", "burst:1"};
  spec.cases = 4;
  spec.steps = 50;
  spec.workers = 2;
  const auto result = oic::eval::run_sweep(ScenarioRegistry::builtin(), spec);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.result.savings[0], cell.result.savings[1]) << cell.scenario;
    EXPECT_EQ(cell.result.mean_skipped[0], cell.result.mean_skipped[1])
        << cell.scenario;
  }
  EXPECT_FALSE(result.safety_violations);
}

TEST(Burst, CertifiedBurstsEngageAndNeverLeaveXi) {
  // Drive the monitor directly so the burst counters are observable: with
  // a depth-3 ladder the policy's skips must trigger multi-step bursts
  // (burst_steps > 0), every visited state must stay inside XI under
  // worst-case-ish random disturbances, and the monitor must keep running
  // the controller when needed after each burst ends.
  auto& plant = shared_plant("toy2d");
  ASSERT_GE(plant.ladder().size(), 3u);
  oic::core::BurstSkipPolicy policy(3);
  oic::control::TubeMpc rmpc(plant.rmpc());  // private copy
  oic::core::IntermittentController ic(
      plant.system(), plant.sets(), rmpc, policy,
      oic::eval::make_intermittent_config(plant, policy));

  Rng rng(4242);
  Vector x = plant.sample_x0(rng);
  Vector w(1);
  Vector x_next(2);
  const double w_max = 0.8;  // Toy2dParams default
  for (int t = 0; t < 120; ++t) {
    const auto d = ic.decide(x);
    w[0] = rng.uniform(-w_max, w_max);
    plant.system().step_into(x, d.u, w, x_next);
    ic.record_transition(x, d.u, x_next);
    EXPECT_TRUE(plant.sets().xi.contains(x_next, 1e-6)) << "step " << t;
    x = x_next;
  }
  EXPECT_GT(ic.burst_steps(), 0u);
  EXPECT_GE(ic.skipped_steps(), ic.burst_steps());
  // reset() abandons any in-flight burst.
  ic.reset();
  EXPECT_EQ(ic.burst_remaining(), 0u);
}

TEST(Burst, ControllerRejectsBurstWithoutLadder) {
  auto& plant = shared_plant("toy2d");
  oic::core::BurstSkipPolicy policy(2);
  oic::control::TubeMpc rmpc(plant.rmpc());
  oic::core::IntermittentConfig icfg;
  icfg.u_skip = plant.u_skip();
  icfg.burst_depth = 2;  // but no ladder supplied
  EXPECT_THROW(oic::core::IntermittentController(plant.system(), plant.sets(), rmpc,
                                                 policy, icfg),
               oic::PreconditionError);
}

TEST(Burst, ControllerValidatesUncertifiedLadders) {
  // A hand-assembled (uncertified) ladder whose base is NOT inside X' must
  // be rejected by the constructor's LP re-check; the same ladder flagged
  // ladder_certified skips that check (the certificate layer's job).
  auto& plant = shared_plant("toy2d");
  oic::core::BurstSkipPolicy policy(1);
  oic::control::TubeMpc rmpc(plant.rmpc());
  oic::core::IntermittentConfig icfg;
  icfg.u_skip = plant.u_skip();
  icfg.burst_depth = 1;
  icfg.ladder = {plant.sets().x};  // the full safe set: not inside X'
  EXPECT_THROW(oic::core::IntermittentController(plant.system(), plant.sets(), rmpc,
                                                 policy, icfg),
               oic::PreconditionError);
}

// ------------------------------------------------------------- scenario

TEST(Scenario, CopyingDefaultConstructedDoesNotCrash) {
  // Regression: the copy constructor used to dereference other.profile
  // unconditionally, so copying a default-constructed Scenario segfaulted.
  oic::eval::Scenario empty;
  oic::eval::Scenario copy(empty);
  EXPECT_EQ(copy.profile, nullptr);
  EXPECT_TRUE(copy.id.empty());

  oic::eval::Scenario assigned;
  assigned = empty;
  EXPECT_EQ(assigned.profile, nullptr);

  // Copies of a real scenario still deep-clone the profile.
  const auto real = ScenarioRegistry::builtin().make_scenario("toy2d", "sine");
  oic::eval::Scenario real_copy(real);
  ASSERT_NE(real_copy.profile, nullptr);
  EXPECT_NE(real_copy.profile.get(), real.profile.get());
  // And assigning an empty one over it null-propagates rather than crashing.
  real_copy = empty;
  EXPECT_EQ(real_copy.profile, nullptr);
}

}  // namespace
