#pragma once
/// \file io.hpp
/// Round-trippable plain-text I/O for the numeric building blocks of a
/// safety certificate: linalg::Vector, linalg::Matrix, poly::HPolytope.
///
/// Everything the offline synthesis produces (gains, tightened constraint
/// sets, the nested safe sets, the k-step ladder) is made of these three
/// types, so the certificate format (`oic-cert v1`, see certificate.hpp)
/// is a tagged sequence of them.  Values are written with 17 significant
/// digits -- enough for IEEE-754 doubles to survive the text round trip
/// bit for bit -- which is what lets a loaded certificate reproduce fresh
/// synthesis exactly (the golden-load guarantee).
///
/// Grammar (whitespace-separated tokens, one object per tag):
///   vector <n> <v_0> ... <v_{n-1}>
///   matrix <rows> <cols> <row-major values>
///   polytope <m> <n> <a_00> ... <a_0,n-1> <b_0>  ...   (one row + offset
///                                                       per constraint)
/// Readers take a textio::Reader over the whole document (token rules in
/// common/textio.hpp; counts are capped at 4096) and throw NumericalError
/// on malformed or truncated input.

#include <iosfwd>

#include "common/textio.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "poly/hpolytope.hpp"

namespace oic::cert {

/// Write / read one tagged vector.
void write_vector(std::ostream& os, const linalg::Vector& v);
linalg::Vector read_vector(textio::Reader& in);

/// Write / read one tagged matrix (row-major values).
void write_matrix(std::ostream& os, const linalg::Matrix& m);
linalg::Matrix read_matrix(textio::Reader& in);

/// Write / read one tagged polytope { x | A x <= b }: each constraint row
/// is the n coefficients of A followed by the offset b.  Handles the empty
/// description (m = 0, the universe) and single-row sets.
void write_polytope(std::ostream& os, const poly::HPolytope& p);
poly::HPolytope read_polytope(textio::Reader& in);

/// Exact (bitwise) equality of the numeric payloads -- the comparison the
/// round-trip and golden-load tests are phrased in.
bool bit_equal(const linalg::Vector& a, const linalg::Vector& b);
bool bit_equal(const linalg::Matrix& a, const linalg::Matrix& b);
bool bit_equal(const poly::HPolytope& a, const poly::HPolytope& b);

}  // namespace oic::cert
