#include "rl/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <string_view>

#include "common/error.hpp"
#include "common/textio.hpp"

namespace oic::rl {

namespace {

/// Caps on parsed shapes: a corrupted or adversarial header must fail
/// before it turns into a multi-gigabyte allocation.  Real skipping agents
/// are a few layers of at most a few hundred units.
constexpr std::size_t kMaxLayerSize = 4096;
constexpr std::size_t kMaxLayers = 64;
constexpr std::size_t kMaxMemory = 4096;

Mlp read_mlp(textio::Reader& in) {
  in.expect_magic("oic-mlp", "v1");
  in.expect("sizes:");
  // The whole line must be layer sizes: a stray token would silently
  // reinterpret the network with a shorter shape.
  std::vector<std::size_t> sizes;
  while (!in.at_line_end()) {
    if (sizes.size() == kMaxLayers) {
      in.fail("layer count exceeds " + std::to_string(kMaxLayers));
    }
    sizes.push_back(in.count("layer size", kMaxLayerSize));
    if (sizes.back() < 1) in.fail("layer size must be >= 1");
  }
  if (sizes.size() < 2) in.fail("need at least two layer sizes");

  Rng dummy(0);
  Mlp net(sizes, dummy);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    auto& w = net.weight(l);
    for (std::size_t i = 0; i < w.rows(); ++i)
      for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = in.finite("weight");
    auto& b = net.bias(l);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = in.finite("bias");
  }
  in.expect_end();
  return net;
}

AgentHeader read_agent_header(textio::Reader& in) {
  in.expect_magic("oic-agent", "v1");
  in.expect("plant:");
  const std::string_view plant = in.token("plant id");
  in.expect("memory:");
  const std::size_t memory = in.count("memory length", kMaxMemory);
  if (memory < 1) in.fail("memory length must be >= 1");
  return AgentHeader{plant == "?" ? std::string() : std::string(plant), memory};
}

}  // namespace

void save_mlp(const Mlp& net, std::ostream& os) {
  os << "oic-mlp v1\n";
  os << "sizes:";
  for (std::size_t s : net.sizes()) os << ' ' << s;
  os << '\n';
  os << std::setprecision(17);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const auto& w = net.weight(l);
    for (std::size_t i = 0; i < w.rows(); ++i)
      for (std::size_t j = 0; j < w.cols(); ++j) os << w(i, j) << '\n';
    const auto& b = net.bias(l);
    for (std::size_t i = 0; i < b.size(); ++i) os << b[i] << '\n';
  }
  // End sentinel: the payload length is implied by the sizes header, so
  // without it a file truncated *inside the final value* would still
  // parse (as a different number).  The sentinel makes every truncation
  // detectable.
  os << "end\n";
  if (!os) throw NumericalError("save_mlp: stream write failed");
}

Mlp load_mlp(std::istream& is) {
  const std::string text = textio::slurp(is);
  textio::Reader in("oic-mlp", text);
  return read_mlp(in);
}

void save_agent(const AgentSnapshot& snap, std::ostream& os) {
  if (snap.plant.find_first_of(" \t\n") != std::string::npos) {
    throw NumericalError("save_agent: plant id must not contain whitespace");
  }
  os << "oic-agent v1\n";
  os << "plant: " << (snap.plant.empty() ? "?" : snap.plant) << '\n';
  os << "memory: " << snap.memory << '\n';
  os << std::setprecision(17);
  os << "scale:";
  for (std::size_t i = 0; i < snap.state_scale.size(); ++i) {
    os << ' ' << snap.state_scale[i];
  }
  os << '\n';
  save_mlp(snap.net, os);
  if (!os) throw NumericalError("save_agent: stream write failed");
}

AgentHeader load_agent_header_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw NumericalError("load_agent_header_file: cannot open " + path);
  const std::string text = textio::slurp(is);
  textio::Reader in("oic-agent", text);
  return read_agent_header(in);
}

AgentSnapshot load_agent(std::istream& is) {
  const std::string text = textio::slurp(is);
  textio::Reader in("oic-agent", text);
  AgentHeader header = read_agent_header(in);
  in.expect("scale:");
  // The line must be numbers entirely; stray tokens ("nan", a duplicated
  // section header) are corruption, not padding.
  linalg::Vector scale;
  while (!in.at_line_end()) scale.data().push_back(in.finite("scale value"));
  return AgentSnapshot{std::move(header.plant), header.memory, std::move(scale),
                       read_mlp(in)};
}

void save_agent_file(const AgentSnapshot& snap, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw NumericalError("save_agent_file: cannot open " + path);
  save_agent(snap, os);
}

AgentSnapshot load_agent_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw NumericalError("load_agent_file: cannot open " + path);
  return load_agent(is);
}

void save_mlp_file(const Mlp& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw NumericalError("save_mlp_file: cannot open " + path);
  save_mlp(net, os);
}

Mlp load_mlp_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw NumericalError("load_mlp_file: cannot open " + path);
  return load_mlp(is);
}

}  // namespace oic::rl
