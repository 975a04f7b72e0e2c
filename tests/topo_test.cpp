#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "obs/env.hpp"
#include "topo/builder.hpp"
#include "topo/format.hpp"
#include "topo/presets.hpp"
#include "topo/registry.hpp"

namespace ilan::topo {

// Without this gtest prints a MachineSpec parameter as a raw byte dump that
// includes the heap address of `name`, so the listed test names (and the
// ctest names discovered from them) would change from one run to the next.
void PrintTo(const MachineSpec& spec, std::ostream* os) { *os << spec.name; }

}  // namespace ilan::topo

namespace {

using namespace ilan::topo;

TEST(StrongId, BasicSemantics) {
  const CoreId a{3};
  const CoreId b{3};
  const CoreId c{4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.value(), 3);
  EXPECT_EQ(a.index(), 3u);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(CoreId::invalid().valid());
}

TEST(StrongId, Hashable) {
  std::hash<CoreId> h;
  EXPECT_EQ(h(CoreId{5}), h(CoreId{5}));
  EXPECT_NE(h(CoreId{5}), h(CoreId{6}));
}

TEST(Builder, Zen4PresetShape) {
  const auto topo = build(presets::zen4_epyc9354_2s());
  EXPECT_EQ(topo.num_sockets(), 2);
  EXPECT_EQ(topo.num_nodes(), 8);
  EXPECT_EQ(topo.num_ccds(), 16);
  EXPECT_EQ(topo.num_cores(), 64);
  EXPECT_EQ(topo.cores_per_node(), 8);
}

TEST(Builder, HierarchyIsConsistent) {
  const auto topo = build(presets::zen4_epyc9354_2s());
  for (const auto& core : topo.cores()) {
    const auto& ccd = topo.ccd(core.ccd);
    EXPECT_EQ(ccd.node, core.node);
    const auto& node = topo.node(core.node);
    EXPECT_EQ(node.socket, core.socket);
    // Core is listed by its ccd and node.
    EXPECT_NE(std::find(ccd.cores.begin(), ccd.cores.end(), core.id), ccd.cores.end());
    EXPECT_NE(std::find(node.cores.begin(), node.cores.end(), core.id),
              node.cores.end());
  }
  for (const auto& node : topo.nodes()) {
    EXPECT_EQ(node.cores.size(), 8u);
    EXPECT_EQ(node.ccds.size(), 2u);
    EXPECT_EQ(topo.node_of(node.primary_core), node.id);
  }
}

TEST(Builder, DistancesFollowSlitConventions) {
  const auto topo = build(presets::zen4_epyc9354_2s());
  for (const auto& a : topo.nodes()) {
    for (const auto& b : topo.nodes()) {
      const double d = topo.distance(a.id, b.id);
      if (a.id == b.id) {
        EXPECT_EQ(d, 10.0);
      } else if (a.socket == b.socket) {
        EXPECT_EQ(d, 12.0);
      } else {
        EXPECT_EQ(d, 32.0);
      }
      // Symmetry.
      EXPECT_EQ(d, topo.distance(b.id, a.id));
    }
  }
}

TEST(Builder, NodesByDistanceOrdering) {
  const auto topo = build(presets::zen4_epyc9354_2s());
  const auto order = topo.nodes_by_distance(NodeId{2});
  ASSERT_EQ(order.size(), 8u);
  // Self first, then same-socket nodes (0,1,3), then cross-socket.
  EXPECT_EQ(order[0], NodeId{2});
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(topo.same_socket(order[static_cast<std::size_t>(i)], NodeId{2}))
        << "position " << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_FALSE(topo.same_socket(order[static_cast<std::size_t>(i)], NodeId{2}))
        << "position " << i;
  }
  // Deterministic tie-break: ascending ids within each distance class.
  EXPECT_EQ(order[1], NodeId{0});
  EXPECT_EQ(order[2], NodeId{1});
  EXPECT_EQ(order[3], NodeId{3});
  EXPECT_EQ(order[4], NodeId{4});
}

TEST(Builder, TotalBandwidthSumsControllers) {
  const auto spec = presets::zen4_epyc9354_2s();
  const auto topo = build(spec);
  EXPECT_DOUBLE_EQ(topo.total_mem_bw_gbps(), spec.node_bw_gbps * 8);
}

TEST(Builder, RejectsNonPositiveCounts) {
  auto spec = presets::tiny_2n8c();
  spec.sockets = 0;
  EXPECT_THROW(build(spec), std::invalid_argument);
  spec = presets::tiny_2n8c();
  spec.cores_per_ccd = -1;
  EXPECT_THROW(build(spec), std::invalid_argument);
  spec = presets::tiny_2n8c();
  spec.node_bw_gbps = 0.0;
  EXPECT_THROW(build(spec), std::invalid_argument);
  spec = presets::tiny_2n8c();
  spec.dist_same_socket = 9.0;  // below SLIT local
  EXPECT_THROW(build(spec), std::invalid_argument);
}

class PresetTest : public ::testing::TestWithParam<MachineSpec> {};

TEST_P(PresetTest, BuildsAndValidates) {
  const auto topo = build(GetParam());
  EXPECT_EQ(topo.num_cores(), GetParam().total_cores());
  EXPECT_EQ(topo.num_nodes(), GetParam().total_nodes());
  EXPECT_GT(topo.cores_per_node(), 0);
  // Every core reachable through ids.
  for (int c = 0; c < topo.num_cores(); ++c) {
    EXPECT_EQ(topo.core(CoreId{c}).id, CoreId{c});
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest,
                         ::testing::Values(presets::zen4_epyc9354_2s(),
                                           presets::tiny_2n8c(),
                                           presets::small_4n16c(),
                                           presets::quad_4s16n256c(),
                                           presets::cxl_zen4_far(),
                                           presets::hetero_zen4_pe()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& ch : n) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return n;
                         });

TEST(Format, RoundTripsEveryField) {
  const auto spec = presets::zen4_epyc9354_2s();
  const auto parsed = ilan::topo::parse_machine_spec(serialize(spec));
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.sockets, spec.sockets);
  EXPECT_EQ(parsed.nodes_per_socket, spec.nodes_per_socket);
  EXPECT_EQ(parsed.ccds_per_node, spec.ccds_per_node);
  EXPECT_EQ(parsed.cores_per_ccd, spec.cores_per_ccd);
  EXPECT_DOUBLE_EQ(parsed.core_freq_ghz, spec.core_freq_ghz);
  EXPECT_DOUBLE_EQ(parsed.core_bw_gbps, spec.core_bw_gbps);
  EXPECT_DOUBLE_EQ(parsed.l3_mb_per_ccd, spec.l3_mb_per_ccd);
  EXPECT_DOUBLE_EQ(parsed.node_mem_gb, spec.node_mem_gb);
  EXPECT_DOUBLE_EQ(parsed.node_bw_gbps, spec.node_bw_gbps);
  EXPECT_DOUBLE_EQ(parsed.node_latency_ns, spec.node_latency_ns);
  EXPECT_DOUBLE_EQ(parsed.xlink_bw_gbps, spec.xlink_bw_gbps);
  EXPECT_DOUBLE_EQ(parsed.dist_same_socket, spec.dist_same_socket);
  EXPECT_DOUBLE_EQ(parsed.dist_cross_socket, spec.dist_cross_socket);
}

TEST(Format, AcceptsCommentsAndBlankLines) {
  const auto spec = parse_machine_spec(
      "# a machine\n"
      "\n"
      "name = demo   # trailing comment\n"
      "sockets = 2\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.sockets, 2);
}

TEST(Format, RejectsUnknownKey) {
  EXPECT_THROW(parse_machine_spec("socket_count = 2\n"), std::invalid_argument);
}

TEST(Format, RejectsMalformedLine) {
  EXPECT_THROW(parse_machine_spec("sockets 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_machine_spec("sockets = two\n"), std::invalid_argument);
  EXPECT_THROW(parse_machine_spec("sockets = \n"), std::invalid_argument);
}

TEST(Format, ReportsLineNumber) {
  try {
    parse_machine_spec("name = x\nbogus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Format, LoadMissingFileThrows) {
  EXPECT_THROW(load_machine_spec("/nonexistent/machine.topo"), std::runtime_error);
}

TEST(Format, RoundTripsFarAndHeteroFields) {
  auto spec = presets::cxl_zen4_far();
  spec.e_freq_ghz = 2.1;
  spec.e_per_ccd = 1;
  const auto parsed = parse_machine_spec(serialize(spec));
  EXPECT_DOUBLE_EQ(parsed.far_gb, spec.far_gb);
  EXPECT_DOUBLE_EQ(parsed.far_bw_gbps, spec.far_bw_gbps);
  EXPECT_DOUBLE_EQ(parsed.far_lat_ns, spec.far_lat_ns);
  EXPECT_DOUBLE_EQ(parsed.e_freq_ghz, spec.e_freq_ghz);
  EXPECT_EQ(parsed.e_per_ccd, spec.e_per_ccd);
}

// Builder validation must name the offending MachineSpec key so a bad
// ILAN_TOPO override is diagnosable from the message alone.
TEST(Builder, DegenerateSpecsNameTheOffendingKey) {
  const auto expect_key = [](MachineSpec spec, const char* key) {
    try {
      (void)build(spec);
      FAIL() << "expected throw naming '" << key << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  };
  auto spec = presets::tiny_2n8c();
  spec.sockets = 0;
  expect_key(spec, "sockets");
  spec = presets::tiny_2n8c();
  spec.cores_per_ccd = -3;
  expect_key(spec, "cores_per_ccd");
  spec = presets::tiny_2n8c();
  spec.node_bw_gbps = -5.0;
  expect_key(spec, "node_bw_gbps");
  spec = presets::tiny_2n8c();
  spec.node_mem_gb = 0.0;
  expect_key(spec, "node_mem_gb");
  spec = presets::tiny_2n8c();
  spec.far_bw_gbps = -1.0;
  expect_key(spec, "far_bw_gbps");
  // Far tier needs all three attributes: capacity/latency without bandwidth
  // is a half-specified tier, not a tierless machine.
  spec = presets::tiny_2n8c();
  spec.far_gb = 64.0;
  expect_key(spec, "far_bw_gbps");
  spec = presets::tiny_2n8c();
  spec.far_bw_gbps = 30.0;  // bandwidth without capacity/latency
  expect_key(spec, "far_gb");
  // E-cores must leave at least one P-core per CCD and carry a frequency.
  spec = presets::tiny_2n8c();
  spec.e_per_ccd = spec.cores_per_ccd;
  spec.e_freq_ghz = 2.0;
  expect_key(spec, "e_per_ccd");
  spec = presets::tiny_2n8c();
  spec.e_per_ccd = 1;
  expect_key(spec, "e_freq_ghz");
  spec = presets::tiny_2n8c();
  spec.e_freq_ghz = 2.0;  // frequency without any E-core
  expect_key(spec, "e_per_ccd");
}

TEST(Builder, RejectsMoreThan64Nodes) {
  // rt::NodeMask is a 64-bit word; the builder must refuse anything wider.
  auto spec = presets::tiny_2n8c();
  spec.sockets = 5;
  spec.nodes_per_socket = 13;  // 65 nodes
  EXPECT_THROW(build(spec), std::invalid_argument);
  spec.sockets = 4;
  spec.nodes_per_socket = 16;  // exactly 64: fine
  EXPECT_NO_THROW(build(spec));
}

TEST(Builder, FarTierLandsOnEveryNode) {
  const auto topo = build(presets::cxl_zen4_far());
  EXPECT_TRUE(topo.has_far_tier());
  for (const auto& node : topo.nodes()) {
    EXPECT_TRUE(node.far.present());
    EXPECT_GT(node.far.bytes, 0.0);
    EXPECT_GT(node.far.latency_ns, node.mem_latency_ns);
  }
  EXPECT_FALSE(build(presets::zen4_epyc9354_2s()).has_far_tier());
}

TEST(Builder, HeteroAssignsECoresPerCcd) {
  const auto spec = presets::hetero_zen4_pe();
  const auto topo = build(spec);
  for (const auto& ccd : topo.ccds()) {
    int e_cores = 0;
    for (const auto core_id : ccd.cores) {
      const auto& core = topo.core(core_id);
      if (core.base_freq_ghz == spec.e_freq_ghz) ++e_cores;
      else EXPECT_DOUBLE_EQ(core.base_freq_ghz, spec.core_freq_ghz);
    }
    EXPECT_EQ(e_cores, spec.e_per_ccd);
    // The E-cores are the trailing cores of the CCD, so the node primary
    // (front core) always runs at P-core frequency.
    EXPECT_DOUBLE_EQ(topo.core(ccd.cores.front()).base_freq_ghz, spec.core_freq_ghz);
  }
}

// --- topology registry ----------------------------------------------------

TEST(TopoRegistry, KnowsBuiltins) {
  const auto& reg = TopologyRegistry::instance();
  for (const char* name : {"zen4", "tiny", "small", "quad", "cxl", "hetero"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.description(name).empty()) << name;
    EXPECT_NO_THROW((void)build(reg.make(name))) << name;
  }
}

TEST(TopoRegistry, ZenSpecMatchesLegacyPreset) {
  // The spec-driven default must be the hard-coded preset, field for field
  // (serialize covers every MachineSpec field).
  EXPECT_EQ(serialize(make_machine_spec("zen4")),
            serialize(presets::zen4_epyc9354_2s()));
}

TEST(TopoRegistry, ParsesSpecGrammar) {
  const auto spec = parse_topo_spec("quad:sockets=4,cores=256");
  EXPECT_EQ(spec.name, "quad");
  ASSERT_EQ(spec.options.size(), 2u);
  EXPECT_EQ(spec.options[0].key, "sockets");
  EXPECT_EQ(spec.options[0].value, "4");
  EXPECT_EQ(spec.to_string(), "quad:sockets=4,cores=256");
  EXPECT_THROW((void)parse_topo_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_topo_spec("zen4:freq"), std::invalid_argument);
  EXPECT_THROW((void)parse_topo_spec("zen4:a=1,a=2"), std::invalid_argument);
}

TEST(TopoRegistry, OptionsOverrideBase) {
  const auto ms = make_machine_spec("zen4:core_freq=2.5,node_bw=100");
  EXPECT_DOUBLE_EQ(ms.core_freq_ghz, 2.5);
  EXPECT_DOUBLE_EQ(ms.node_bw_gbps, 100.0);
  EXPECT_EQ(ms.sockets, 2);  // untouched structure stays zen4

  // Structure keys are machine totals, re-derived into per-level counts.
  const auto quad = make_machine_spec("quad:sockets=2,nodes=8,ccds=16,cores=128");
  EXPECT_EQ(quad.sockets, 2);
  EXPECT_EQ(quad.nodes_per_socket, 4);
  EXPECT_EQ(quad.ccds_per_node, 2);
  EXPECT_EQ(quad.cores_per_ccd, 8);
}

TEST(TopoRegistry, ErrorsNameOffenderAndListTopologies) {
  const auto expect_contains = [](const char* text, std::vector<const char*> needles) {
    try {
      (void)make_machine_spec(text);
      FAIL() << "expected throw for '" << text << "'";
    } catch (const std::invalid_argument& e) {
      for (const char* n : needles) {
        EXPECT_NE(std::string(e.what()).find(n), std::string::npos)
            << "'" << e.what() << "' should contain '" << n << "'";
      }
    }
  };
  expect_contains("nope", {"nope", "registered topologies", "zen4"});
  expect_contains("zen4:bogus=1", {"bogus", "registered"});
  expect_contains("zen4:cores=banana", {"cores", "banana"});
  // Structure totals must divide: 10 nodes over 4 sockets is not a machine.
  expect_contains("quad:nodes=10", {"nodes", "divisible"});
  // Semantically invalid overrides surface the builder's key-naming error.
  expect_contains("zen4:node_bw=-3", {"node_bw"});
}

TEST(TopoRegistry, ResolveIsIdempotentAndExplicit) {
  const auto& reg = TopologyRegistry::instance();
  for (const auto& name : reg.names()) {
    const std::string resolved = reg.resolve(name);
    EXPECT_EQ(reg.resolve(resolved), resolved) << name;
    // Resolved text is a complete spec: making it reproduces the machine.
    EXPECT_EQ(serialize(reg.make(resolved)), serialize(reg.make(name))) << name;
  }
  // Overrides survive resolution.
  EXPECT_NE(reg.resolve("zen4:core_freq=2.5").find("core_freq=2.5"),
            std::string::npos);
}

TEST(TopoRegistry, EnvKnobSelectsMachine) {
  {
    const ilan::obs::ScopedEnv unset("ILAN_TOPO");
    EXPECT_EQ(env_topo_spec(), "zen4");
    EXPECT_EQ(serialize(machine_spec_from_env()),
              serialize(presets::zen4_epyc9354_2s()));
  }
  {
    const ilan::obs::ScopedEnv set("ILAN_TOPO", "tiny");
    EXPECT_EQ(env_topo_spec(), "tiny");
    EXPECT_EQ(machine_spec_from_env().name, presets::tiny_2n8c().name);
  }
  {
    const ilan::obs::ScopedEnv bad("ILAN_TOPO", "not-a-machine");
    EXPECT_THROW((void)machine_spec_from_env(), std::invalid_argument);
  }
}

}  // namespace
