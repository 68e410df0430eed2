#include "cert/certificate.hpp"

#include <charconv>
#include <fstream>
#include <string_view>

#include "cert/io.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/textio.hpp"
#include "control/lqr.hpp"

namespace oic::cert {

using linalg::Matrix;
using linalg::Vector;
using poly::HPolytope;

namespace {

/// The shared FNV-1a core (common/hash.hpp) extended with the linalg
/// aggregates certificates are made of.
class Fnv1a : public oic::Fnv1a {
 public:
  void vec(const Vector& v) {
    u64(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) f64(v[i]);
  }
  void mat(const Matrix& m) {
    u64(m.rows());
    u64(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) f64(m(i, j));
    }
  }
  void polytope(const HPolytope& p) {
    mat(p.a());
    vec(p.b());
  }
};

constexpr const char* kFormat = "oic-cert";

/// A `<tag> <16 lowercase hex digits>` hash line.
std::uint64_t read_hash(textio::Reader& in, const char* tag, const char* what) {
  in.expect(tag);
  const std::string_view hex = in.token(what, 16);
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), v, 16);
  if (hex.size() != 16 || ec != std::errc() || p != hex.data() + hex.size() ||
      hex.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    in.fail(std::string("malformed ") + what + " '" + std::string(hex) + "'");
  }
  return v;
}

CertHeader read_header(textio::Reader& in) {
  in.expect_magic("oic-cert", "v1");
  CertHeader header;
  in.expect("plant:");
  header.plant = in.token("plant id");
  header.model_hash = read_hash(in, "model-hash:", "model hash");
  return header;
}

/// Content hash over the certificate payload (every synthesized number's
/// exact bit pattern).  Recorded in the file and re-checked on load, so a
/// corrupted-but-still-parsable cache entry cannot be silently trusted --
/// the model hash only guards the *inputs*, this guards the *outputs*.
std::uint64_t payload_hash(const PlantCertificate& cert) {
  Fnv1a h;
  h.str(cert.plant);
  h.u64(cert.model_hash);
  h.mat(cert.k_lqr);
  h.u64(cert.tightened.size());
  for (const auto& t : cert.tightened) h.polytope(t);
  h.polytope(cert.terminal);
  h.polytope(cert.sets.x);
  h.polytope(cert.sets.xi);
  h.polytope(cert.sets.x_prime);
  h.u64(cert.ladder.size());
  for (const auto& rung : cert.ladder) h.polytope(rung);
  return h.value();
}

}  // namespace

std::uint64_t model_hash(const PlantModel& model) {
  Fnv1a h;
  h.str(model.id);
  h.mat(model.sys.a());
  h.mat(model.sys.b());
  h.mat(model.sys.e());
  h.vec(model.sys.c());
  h.polytope(model.sys.x_set());
  h.polytope(model.sys.u_set());
  h.polytope(model.sys.w_set());
  h.mat(model.q);
  h.mat(model.r);
  h.u64(model.rmpc.horizon);
  h.f64(model.rmpc.state_weight);
  h.f64(model.rmpc.input_weight);
  h.u64(model.rmpc.closed_loop_tightening ? 1 : 0);
  h.u64(model.rmpc.terminal_options.max_iterations);
  h.f64(model.rmpc.terminal_options.tol);
  h.u64(model.rmpc.terminal_options.prune ? 1 : 0);
  h.vec(model.u_skip);
  h.u64(model.ladder_depth);
  return h.value();
}

std::string hash_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

PlantCertificate synthesize(const PlantModel& model) {
  OIC_REQUIRE(!model.id.empty(), "cert::synthesize: model needs an id");
  OIC_REQUIRE(model.id.find_first_of(" \t\n/") == std::string::npos,
              "cert::synthesize: model id must not contain whitespace or '/'");
  OIC_REQUIRE(model.u_skip.size() == model.sys.nu(),
              "cert::synthesize: skip-input dimension mismatch");
  OIC_REQUIRE(model.ladder_depth >= 1, "cert::synthesize: ladder depth must be >= 1");

  PlantCertificate cert;
  cert.plant = model.id;
  cert.model_hash = model_hash(model);

  const auto lqr = control::dlqr(model.sys.a(), model.sys.b(), model.q, model.r);
  OIC_CHECK(lqr.converged, "cert::synthesize: LQR synthesis did not converge");
  cert.k_lqr = lqr.k;

  const control::TubeMpc rmpc(model.sys, cert.k_lqr, model.rmpc);
  cert.tightened.reserve(model.rmpc.horizon + 1);
  for (std::size_t k = 0; k <= model.rmpc.horizon; ++k) {
    cert.tightened.push_back(rmpc.tightened(k));
  }
  cert.terminal = rmpc.terminal_set();

  // Prop. 1: the RMPC's feasible region is its robust control invariant set.
  const HPolytope xi = rmpc.compute_feasible_set();
  OIC_CHECK(!xi.is_empty(), "cert::synthesize: RMPC feasible set is empty");
  cert.sets = core::compute_safe_sets(model.sys, xi, model.u_skip);

  // The k-step ladder is grown from the exact XI the safe-set triple uses,
  // so ladder[0] reproduces X' bit for bit (same operation sequence).
  cert.ladder = core::compute_multi_step_safe_sets(model.sys, cert.sets.xi,
                                                   model.u_skip, model.ladder_depth);
  OIC_CHECK(!cert.ladder.empty(), "cert::synthesize: skip ladder came out empty");
  return cert;
}

void verify(const PlantModel& model, const PlantCertificate& cert) {
  const auto fail = [](const std::string& why) {
    throw NumericalError("cert::verify: " + why);
  };
  if (cert.plant != model.id) {
    fail("certificate is for plant '" + cert.plant + "', model is '" + model.id + "'");
  }
  if (cert.model_hash != model_hash(model)) {
    fail("model hash mismatch (stale certificate: recorded " +
         hash_hex(cert.model_hash) + ", model is " + hash_hex(model_hash(model)) + ")");
  }
  const std::size_t nx = model.sys.nx();
  if (cert.k_lqr.rows() != model.sys.nu() || cert.k_lqr.cols() != nx) {
    fail("LQR gain shape mismatch");
  }
  if (cert.tightened.size() != model.rmpc.horizon + 1) {
    fail("tightened-set count does not match the RMPC horizon");
  }
  for (const auto& t : cert.tightened) {
    if (t.dim() != nx) fail("tightened set dimension mismatch");
    if (t.is_empty()) fail("a tightened constraint set is empty");
  }
  if (cert.terminal.dim() != nx || cert.terminal.is_empty()) {
    fail("terminal set is empty or has the wrong dimension");
  }
  if (cert.sets.x.dim() != nx || cert.sets.xi.dim() != nx ||
      cert.sets.x_prime.dim() != nx) {
    fail("safe-set dimension mismatch");
  }
  // Theorem 1's premise: X' subset XI subset X.
  if (!core::verify_nesting(cert.sets)) {
    fail("nesting X' subset XI subset X does not hold");
  }
  // Definition 3: from every vertex of X', the skip input keeps every
  // disturbance-vertex successor inside XI (exact for planar plants).
  if (!core::verify_strengthened_property(model.sys, cert.sets, model.u_skip)) {
    fail("Definition-3 property fails on X'");
  }
  // Ladder: non-empty prefix, nested chain inside X' (= X'_1).
  if (cert.ladder.empty() || cert.ladder.size() > model.ladder_depth) {
    fail("ladder is empty or deeper than the model requests");
  }
  for (const auto& rung : cert.ladder) {
    if (rung.dim() != nx) fail("ladder set dimension mismatch");
    if (rung.is_empty()) fail("a ladder set is empty");
  }
  if (!poly::contains_polytope(cert.sets.x_prime, cert.ladder.front(), 1e-6) ||
      !poly::contains_polytope(cert.ladder.front(), cert.sets.x_prime, 1e-6)) {
    fail("ladder base X'_1 does not equal the strengthened set X'");
  }
  for (std::size_t k = 1; k < cert.ladder.size(); ++k) {
    if (!poly::contains_polytope(cert.ladder[k - 1], cert.ladder[k], 1e-6)) {
      fail("ladder chain is not nested at depth " + std::to_string(k + 1));
    }
  }
  // The ladder's defining multi-step property, not just its nesting
  // (vertex-exact for planar plants, like verify_strengthened_property):
  // every vertex of X'_k must map under the skip input into X'_{k-1}
  // (X'_0 := XI) for every disturbance vertex.  This is what actually
  // certifies a whole burst -- a corrupted-but-still-nested rung must not
  // pass independent verification.
  if (nx == 2) {
    const auto wverts = model.sys.disturbance_in_state_space().vertices_2d();
    for (std::size_t k = 0; k < cert.ladder.size(); ++k) {
      const HPolytope& target = (k == 0) ? cert.sets.xi : cert.ladder[k - 1];
      for (const auto& v : cert.ladder[k].vertices_2d()) {
        const Vector base =
            model.sys.a() * v + model.sys.b() * model.u_skip + model.sys.c();
        for (const auto& ew : wverts) {
          if (target.violation(base + ew) > 1e-6) {
            fail("ladder multi-step property fails at depth " +
                 std::to_string(k + 1));
          }
        }
      }
    }
  }
}

void save_certificate(const PlantCertificate& cert, std::ostream& os) {
  OIC_REQUIRE(!cert.plant.empty() &&
                  cert.plant.find_first_of(" \t\n") == std::string::npos,
              "save_certificate: plant id must be non-empty without whitespace");
  os << "oic-cert v1\n";
  os << "plant: " << cert.plant << '\n';
  os << "model-hash: " << hash_hex(cert.model_hash) << '\n';
  os << "k-lqr:\n";
  write_matrix(os, cert.k_lqr);
  os << "tightened: " << cert.tightened.size() << '\n';
  for (const auto& t : cert.tightened) write_polytope(os, t);
  os << "terminal:\n";
  write_polytope(os, cert.terminal);
  os << "sets:\n";
  write_polytope(os, cert.sets.x);
  write_polytope(os, cert.sets.xi);
  write_polytope(os, cert.sets.x_prime);
  os << "ladder: " << cert.ladder.size() << '\n';
  for (const auto& rung : cert.ladder) write_polytope(os, rung);
  os << "payload-hash: " << hash_hex(payload_hash(cert)) << '\n';
  os << "end\n";
  if (!os) throw NumericalError("save_certificate: stream write failed");
}

PlantCertificate load_certificate(std::istream& is) {
  const std::string text = textio::slurp(is);
  textio::Reader in(kFormat, text);
  const CertHeader header = read_header(in);
  PlantCertificate cert;
  cert.plant = header.plant;
  cert.model_hash = header.model_hash;

  in.expect("k-lqr:");
  cert.k_lqr = read_matrix(in);

  in.expect("tightened:");
  const std::size_t n_tightened = in.count("tightened-set count", 4096);
  for (std::size_t i = 0; i < n_tightened; ++i) {
    cert.tightened.push_back(read_polytope(in));
  }

  in.expect("terminal:");
  cert.terminal = read_polytope(in);

  in.expect("sets:");
  cert.sets.x = read_polytope(in);
  cert.sets.xi = read_polytope(in);
  cert.sets.x_prime = read_polytope(in);

  in.expect("ladder:");
  const std::size_t n_ladder = in.count("ladder count", 4096);
  for (std::size_t i = 0; i < n_ladder; ++i) cert.ladder.push_back(read_polytope(in));

  // Payload integrity: the text round trip is bit-exact, so recomputing
  // the payload hash over what was just parsed must reproduce the recorded
  // value -- any in-place corruption that still parses is caught here.
  if (read_hash(in, "payload-hash:", "payload hash") != payload_hash(cert)) {
    in.fail("payload hash mismatch (corrupted certificate)");
  }
  in.expect_end();
  return cert;
}

void save_certificate_file(const PlantCertificate& cert, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw NumericalError("save_certificate_file: cannot open " + path);
  save_certificate(cert, os);
}

PlantCertificate load_certificate_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw NumericalError("load_certificate_file: cannot open " + path);
  return load_certificate(is);
}

bool bit_equal(const PlantCertificate& a, const PlantCertificate& b) {
  if (a.plant != b.plant || a.model_hash != b.model_hash) return false;
  if (!bit_equal(a.k_lqr, b.k_lqr) || !bit_equal(a.terminal, b.terminal)) return false;
  if (a.tightened.size() != b.tightened.size() || a.ladder.size() != b.ladder.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tightened.size(); ++i) {
    if (!bit_equal(a.tightened[i], b.tightened[i])) return false;
  }
  for (std::size_t i = 0; i < a.ladder.size(); ++i) {
    if (!bit_equal(a.ladder[i], b.ladder[i])) return false;
  }
  return bit_equal(a.sets.x, b.sets.x) && bit_equal(a.sets.xi, b.sets.xi) &&
         bit_equal(a.sets.x_prime, b.sets.x_prime);
}

CertHeader load_certificate_header_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw NumericalError("load_certificate_header_file: cannot open " + path);
  }
  const std::string text = textio::slurp(is);
  textio::Reader in(kFormat, text);
  return read_header(in);
}

}  // namespace oic::cert
