#pragma once
/// \file certificate.hpp
/// The synthesized half of a plant: the offline safety artifacts as a
/// first-class, serializable value.
///
/// A PlantCertificate bundles everything the online side needs and the
/// offline side proves: the local LQR gain, the tube RMPC's tightened
/// constraint sets X(0..N) and terminal set X_t (so the controller can be
/// rehydrated without re-running the Pontryagin/RPI synthesis), the nested
/// safe sets X' subset XI subset X of Theorem 1, and the k-step skip
/// ladder X'_1..X'_k certifying whole skip bursts.  cert::synthesize
/// produces it from a PlantModel; cert::verify re-checks the nesting and
/// the Definition-3 property independently of how the certificate was
/// obtained; serialize/load round-trip it through the `oic-cert v1` text
/// format (docs/cert_format.md) bit for bit.
///
/// Staleness is detected by content hash: the certificate records a 64-bit
/// FNV-1a digest over the model's exact double bit patterns, and loaders
/// reject a certificate whose recorded hash does not match the model they
/// are about to pair it with.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cert/model.hpp"
#include "core/safe_sets.hpp"
#include "poly/hpolytope.hpp"

namespace oic::cert {

/// Offline synthesis artifacts for one plant model (see file comment).
struct PlantCertificate {
  std::string plant;              ///< model id this was synthesized for
  std::uint64_t model_hash = 0;   ///< content hash of the source model
  linalg::Matrix k_lqr;           ///< local stabilizing gain u = K x
  std::vector<poly::HPolytope> tightened;  ///< RMPC X(0) ... X(N)
  poly::HPolytope terminal;       ///< RMPC terminal set X_t
  core::SafeSets sets;            ///< X, XI (Prop. 1), X' (Definition 3)
  std::vector<poly::HPolytope> ladder;  ///< X'_1 .. X'_k non-empty prefix
};

/// Content hash over the model: FNV-1a 64 over the id, every dynamics /
/// weight / constraint double (exact bit patterns), every RMPC
/// configuration field (each one shapes synthesis), the skip input, and
/// the ladder depth.
std::uint64_t model_hash(const PlantModel& model);

/// Hash rendered as 16 lowercase hex digits (file headers, CLI output).
std::string hash_hex(std::uint64_t hash);

/// Run the full offline synthesis for a model: LQR gain, tube RMPC
/// (tightened + terminal sets), feasible set XI per Prop. 1, safe-set
/// triple, and the k-step ladder.  Throws NumericalError when any stage
/// degenerates (LQR divergence, empty feasible set, ...).
PlantCertificate synthesize(const PlantModel& model);

/// Independently re-check a certificate against its model: hash match,
/// dimensional consistency, the Theorem-1 nesting X' subset XI subset X,
/// the Definition-3 property of X' (vertex-exact for planar plants), the
/// ladder chain nesting X'_k subset ... subset X'_1 = X', and terminal /
/// tightened-set sanity.  Throws NumericalError with a specific message on
/// the first failed check.
void verify(const PlantModel& model, const PlantCertificate& cert);

/// Serialize to the `oic-cert v1` text format.  Throws on I/O failure.
void save_certificate(const PlantCertificate& cert, std::ostream& os);

/// Parse a certificate written by save_certificate.  Throws NumericalError
/// on wrong magic/version, malformed tags, or truncation (the format ends
/// with an explicit `end` sentinel).
PlantCertificate load_certificate(std::istream& is);

/// Convenience file wrappers.
void save_certificate_file(const PlantCertificate& cert, const std::string& path);
PlantCertificate load_certificate_file(const std::string& path);

/// Certificate-file header (plant id + recorded model hash) without the
/// set payload -- staleness checks and `oic_cert ls` read this instead of
/// parsing hundreds of constraint rows.
struct CertHeader {
  std::string plant;
  std::uint64_t model_hash = 0;
};

CertHeader load_certificate_header_file(const std::string& path);

/// Exact bitwise equality of two certificates, every field -- the
/// comparison behind the golden load == synthesis guarantee (bench
/// `cert_cold_start` and the round-trip tests).
bool bit_equal(const PlantCertificate& a, const PlantCertificate& b);

}  // namespace oic::cert
