#include "eval/plant.hpp"

#include "common/error.hpp"

namespace oic::eval {

const std::vector<poly::HPolytope>& PlantCase::ladder() const {
  static const std::vector<poly::HPolytope> kEmpty;
  return kEmpty;
}

Scenario& Scenario::operator=(const Scenario& other) {
  if (this != &other) {
    id = other.id;
    description = other.description;
    profile = other.profile ? other.profile->clone() : nullptr;
  }
  return *this;
}

PlantRuntime runtime_from_certificate(const cert::PlantModel& model,
                                      cert::PlantCertificate certificate) {
  OIC_REQUIRE(certificate.plant == model.id,
              "runtime_from_certificate: certificate is for plant '" +
                  certificate.plant + "', model is '" + model.id + "'");
  OIC_REQUIRE(certificate.model_hash == cert::model_hash(model),
              "runtime_from_certificate: stale certificate for plant '" + model.id +
                  "' (model hash mismatch)");
  PlantRuntime rt;
  rt.k_lqr = std::move(certificate.k_lqr);
  rt.rmpc = std::make_unique<control::TubeMpc>(model.sys, rt.k_lqr, model.rmpc,
                                               std::move(certificate.tightened),
                                               std::move(certificate.terminal));
  rt.sets = std::move(certificate.sets);
  rt.ladder = std::move(certificate.ladder);
  rt.x_prime_box = rt.sets.x_prime.bounding_box();
  return rt;
}

PlantRuntime build_plant_runtime(const cert::PlantModel& model,
                                 const cert::Provider& provider) {
  return runtime_from_certificate(model, cert::resolve(model, provider));
}

linalg::Vector sample_from_set(
    const poly::HPolytope& set,
    const std::optional<std::pair<linalg::Vector, linalg::Vector>>& box, Rng& rng,
    const char* who) {
  OIC_CHECK(box.has_value(), std::string(who) + ": set unbounded");
  const std::size_t dim = box->first.size();
  linalg::Vector x(dim);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    for (std::size_t i = 0; i < dim; ++i) {
      x[i] = rng.uniform(box->first[i], box->second[i]);
    }
    if (set.contains(x, -1e-9)) return x;
  }
  throw NumericalError(std::string(who) + ": rejection sampling failed (set too thin?)");
}

}  // namespace oic::eval
