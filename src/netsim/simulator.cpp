#include "netsim/simulator.h"

#include <algorithm>
#include <cassert>

namespace hobbit::netsim {

Simulator::Simulator(const Topology* topology, RouterId source_router,
                     Ipv4Address source_address, HostModel host_model,
                     RttModel rtt_model, SimulatorConfig config)
    : topology_(topology),
      source_router_(source_router),
      source_address_(source_address),
      host_model_(std::move(host_model)),
      rtt_model_(std::move(rtt_model)),
      config_(config),
      seed_hash_state_(StableHashFrom(kStableHashInit, {config.seed})) {
  assert(topology_ != nullptr && topology_->sealed());
}

RouterId Simulator::PickNextHop(RouterId router, const EcmpGroup& group,
                                Ipv4Address dst, std::uint16_t flow_id,
                                std::uint64_t serial) const {
  assert(!group.next_hops.empty());
  if (group.next_hops.size() == 1) return group.next_hops.front();
  std::uint64_t h = 0;
  // Each router salts the hash with its own id so cascaded balancers make
  // independent choices (this is what multiplies cardinality, §3.1).
  switch (group.policy) {
    case LbPolicy::kPerFlow:
      h = StableHashFrom(seed_hash_state_,
                         {router, dst.value(), source_address_.value(),
                          flow_id});
      break;
    case LbPolicy::kPerDestination:
      h = StableHashFrom(seed_hash_state_, {router, dst.value()});
      break;
    case LbPolicy::kPerDestinationCyclic:
      // Randomized per 8-address block, cycling within it: adjacent
      // destinations almost always map to different next hops.
      h = StableHashFrom(seed_hash_state_, {router, dst.value() >> 3}) +
          dst.value();
      break;
    case LbPolicy::kPerDestAndSrc:
      h = StableHashFrom(seed_hash_state_,
                         {router, dst.value(), source_address_.value()});
      break;
    case LbPolicy::kPerPacket:
      h = StableHashFrom(seed_hash_state_,
                         {router, dst.value(), serial, 0xBEEFULL});
      break;
  }
  return group.next_hops[h % group.next_hops.size()];
}

std::vector<RouterId> Simulator::ResolvePath(Ipv4Address destination,
                                             std::uint16_t flow_id,
                                             std::uint64_t serial,
                                             RouteMemo& memo) const {
  HopAt unused;
  std::vector<RouterId> path;
  WalkForward(destination, flow_id, serial, memo, 0, &unused, &path);
  return path;
}

void Simulator::DecodeRow(RouterId router, Ipv4Address dst,
                          const Subnet& subnet,
                          RouteMemo::HopRow& row) const {
  using HopMode = RouteMemo::HopMode;
  for (RouterId gw : subnet.gateways) {
    if (gw == router) {
      row.mode = HopMode::kGateway;
      return;
    }
  }
  const Fib& fib = topology_->router(router).fib;
  const int max_length = fib.max_length();
  const std::uint32_t key =
      max_length == 0 ? 0u : dst.value() >> (32 - max_length);
  if ((row.flags & RouteMemo::kFibFilled) == 0 || row.fib_key != key) {
    row.fib_entry = fib.LookupEntry(dst);
    row.fib_key = key;
    row.flags |= RouteMemo::kFibFilled;
  }
  const FibEntry* entry = row.fib_entry;
  if (entry == nullptr || entry->group.next_hops.empty()) {
    row.mode = HopMode::kDeadEnd;
    return;
  }
  const EcmpGroup& group = entry->group;
  const std::size_t count = group.next_hops.size();
  row.next_hops = row.inline_hops;
  if (count == 1 || (group.policy != LbPolicy::kPerFlow &&
                     group.policy != LbPolicy::kPerPacket)) {
    // The per-destination policies hash no probe field: one pick serves
    // every probe to `dst`.
    row.mode = HopMode::kFixed;
    row.next_hop_count = 1;
    row.inline_hops[0] = PickNextHop(router, group, dst, 0, 0);
    return;
  }
  // The hash prefixes PickNextHop folds before the probe's own fields.
  if (group.policy == LbPolicy::kPerFlow) {
    row.mode = HopMode::kPerFlow;
    row.hash_state = StableHashFrom(
        seed_hash_state_, {router, dst.value(), source_address_.value()});
  } else {
    row.mode = HopMode::kPerPacket;
    row.hash_state = StableHashFrom(seed_hash_state_, {router, dst.value()});
  }
  assert(count <= UINT16_MAX);
  row.next_hop_count = static_cast<std::uint16_t>(count);
  if (count <= RouteMemo::kInlineHops) {
    std::copy(group.next_hops.begin(), group.next_hops.end(),
              row.inline_hops);
  } else {
    row.next_hops = group.next_hops.data();
  }
}

int Simulator::WalkForward(Ipv4Address destination, std::uint16_t flow_id,
                           std::uint64_t serial, RouteMemo& memo,
                           int want_hop, HopAt* at_hop,
                           std::vector<RouterId>* full_path) const {
  memo.Bind(*topology_, seed_hash_state_, source_address_);
  const SubnetId subnet_id = memo.FindSubnet(destination);
  if (subnet_id == kNoSubnet) return 0;
  const Subnet& subnet = topology_->subnet(subnet_id);
  RouterId current = source_router_;
  for (int hop = 1; hop <= config_.max_hops; ++hop) {
    RouteMemo::HopRow& row =
        memo.Row(current, destination, [&](RouteMemo::HopRow& fresh) {
          DecodeRow(current, destination, subnet, fresh);
        });
    if (hop == want_hop) *at_hop = {current, &row};
    if (full_path != nullptr) full_path->push_back(current);
    switch (row.mode) {
      case RouteMemo::HopMode::kGateway:
        return hop;
      case RouteMemo::HopMode::kFixed:
        current = row.next_hops[0];
        continue;
      case RouteMemo::HopMode::kPerFlow:
        current = row.next_hops[Mix64(row.hash_state ^ flow_id) %
                                row.next_hop_count];
        continue;
      case RouteMemo::HopMode::kPerPacket:
        current = row.next_hops[StableHashFrom(row.hash_state,
                                               {serial, 0xBEEFULL}) %
                                row.next_hop_count];
        continue;
      case RouteMemo::HopMode::kDeadEnd:
        break;
    }
    break;
  }
  if (full_path != nullptr) full_path->clear();
  return 0;
}

bool Simulator::RouterResponds(const HopAt& at,
                               Ipv4Address destination) const {
  // The row was decoded for `destination` by this walk; the draw is a
  // pure function of (router, destination), so it is made once per row.
  RouteMemo::HopRow& row = *at.row;
  if ((row.flags & RouteMemo::kRespondsKnown) == 0) {
    row.flags |= RouteMemo::kRespondsKnown;
    if (DrawResponds(at.router, destination)) {
      row.flags |= RouteMemo::kResponds;
    }
  }
  return (row.flags & RouteMemo::kResponds) != 0;
}

bool Simulator::DrawResponds(RouterId router,
                             Ipv4Address destination) const {
  const ResponseModel& model = topology_->router(router).response;
  if (model.respond_probability >= 1.0) return true;
  if (model.respond_probability <= 0.0) return false;
  // Rate limiting is bursty, not i.i.d. per packet: a limited router
  // stays silent for the whole episode of probing one destination.
  // Model it as a deterministic draw per (router, destination).
  double u = HashToUnit(StableHashFrom(
      seed_hash_state_, {router, destination.value(), 0x4E590ULL}));
  return u < model.respond_probability;
}

int Simulator::ReverseHops(Ipv4Address destination, int forward_hops) const {
  double u = HashToUnit(StableHashFrom(
      seed_hash_state_, {destination.value(), 0x4E7E45EULL}));
  if (u >= config_.p_reverse_asymmetry) return forward_hops;
  // Deterministic per-destination extra length in [1, max].
  int extra = 1 + static_cast<int>(
                      HashToUnit(StableHashFrom(
                          seed_hash_state_,
                          {destination.value(), 0xA57AULL})) *
                      config_.max_reverse_extra_hops);
  return forward_hops + extra;
}

ProbeReply Simulator::Send(const ProbeSpec& probe, RouteMemo& memo) const {
  ArtifactContext context;
  ProbeReply reply = SendImpl(probe, memo, &context.path_length);
  // The single artifact application point: every termination path of
  // SendImpl (unroutable, silent router, TTL exceeded, inactive host,
  // outage, echo) flows through here exactly once.
  if (artifacts_ != nullptr) artifacts_->Rewrite(probe, context, reply);
  return reply;
}

ProbeReply Simulator::SendImpl(const ProbeSpec& probe, RouteMemo& memo,
                               int* path_length_out) const {
  HopAt expiring;
  const int path_length = WalkForward(probe.destination, probe.flow_id,
                                      probe.serial, memo, probe.ttl,
                                      &expiring);
  *path_length_out = path_length;
  if (path_length == 0) return {};  // unroutable: timeout

  // The destination host sits one hop beyond the last router, so the
  // probe reaches the host when ttl > path length.
  const int host_hop = path_length + 1;
  if (probe.ttl < host_hop) {
    // TTL expires at the router at hop `ttl` (recorded by the walk).
    if (!RouterResponds(expiring, probe.destination)) return {};
    ProbeReply reply;
    reply.kind = ReplyKind::kTtlExceeded;
    reply.responder = topology_->router(expiring.router).reply_address;
    reply.hop = probe.ttl;
    reply.rtt_ms = rtt_model_.RouterRtt(reply.responder, probe.ttl,
                                        static_cast<std::uint32_t>(probe.serial));
    // Reply TTL of time-exceeded messages is not used by the tools here.
    reply.reply_ttl = 255 - probe.ttl;
    return reply;
  }

  const SubnetId subnet_id = memo.FindSubnet(probe.destination);
  if (subnet_id == kNoSubnet) return {};
  const Subnet& subnet = topology_->subnet(subnet_id);
  if (!host_model_.ActiveAtProbeTime(probe.destination, subnet)) return {};
  if (outage_ != nullptr && outage_->IsDown(probe.destination)) return {};

  ProbeReply reply;
  reply.kind = ReplyKind::kEchoReply;
  reply.responder = probe.destination;
  reply.hop = host_hop;
  const int reverse_hops = ReverseHops(probe.destination, host_hop - 1);
  reply.reply_ttl =
      host_model_.DefaultTtl(probe.destination) - reverse_hops;
  if (reply.reply_ttl < 1) reply.reply_ttl = 1;
  reply.rtt_ms = rtt_model_.EchoRtt(probe.destination, subnet, host_hop,
                                    probe.train_sequence, probe.train_id);
  return reply;
}

}  // namespace hobbit::netsim
