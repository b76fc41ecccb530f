#include "obs/hooks.h"

namespace cluert::obs {

namespace {

Labels withExtra(Labels base, const Labels& extra) {
  base.insert(base.end(), extra.begin(), extra.end());
  return base;
}

}  // namespace

LookupObs LookupObs::bind(MetricRegistry& reg, std::size_t shard,
                          Tracer* tracer, const Labels& extra) {
  LookupObs o;
  o.shard = shard;
  o.tracer = tracer;
  o.packets = &reg.counter("lookup_packets_total",
                           "Packets resolved by the clue-assisted fast path",
                           extra)
                   .shard(shard);
  for (std::size_t c = 0; c < kOutcomeCount; ++c) {
    o.cases[c] =
        &reg.counter(
                "lookup_case_total",
                "Lookup outcomes by paper case (1/2/3) plus miss and no_clue",
                withExtra({{"case", std::string(
                                        outcomeName(static_cast<Outcome>(c)))}},
                          extra))
             .shard(shard);
  }
  o.claim1_skip =
      &reg.counter("lookup_claim1_skip_total",
                   "Case-2 resolutions where Claim 1 (not a leaf clue) "
                   "emptied the candidate set",
                   extra)
           .shard(shard);
  o.search_failed =
      &reg.counter("lookup_search_failed_total",
                   "Case-3 continuations that fell back to the FD", extra)
           .shard(shard);
  o.accesses = &reg.histogram("lookup_accesses",
                              "Dependent memory accesses per lookup (the §6 "
                              "unit of cost)",
                              extra);
  o.latency_ns = &reg.histogram(
      "lookup_latency_ns", "Wall-clock nanoseconds per sampled lookup",
      extra);
  return o;
}

WorkerObs WorkerObs::bind(MetricRegistry& reg, std::size_t shard,
                          const Labels& extra) {
  WorkerObs o;
  o.packets = &reg.counter("pipeline_packets_total",
                           "Packets forwarded by the pipeline shards", extra)
                   .shard(shard);
  o.batches = &reg.counter("pipeline_batches_total",
                           "Batches consumed by the pipeline shards", extra)
                   .shard(shard);
  return o;
}

ChurnObs ChurnObs::bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra) {
  ChurnObs o;
  o.shard = shard;
  o.swaps = &reg.counter("rib_version_swaps_total",
                         "Table versions published (atomic live-pointer swaps)",
                         extra)
                 .shard(shard);
  o.full_rebuilds =
      &reg.counter("rib_version_full_rebuilds_total",
                   "Publishes that fell back to a full table rebuild because "
                   "the delta exceeded the churn threshold",
                   extra)
           .shard(shard);
  o.retired_validated =
      &reg.counter("rib_version_retired_validated_total",
                   "Retired versions run through check::validate before reuse",
                   extra)
           .shard(shard);
  o.live_seq = &reg.gauge("rib_version_live_seq",
                          "Sequence number of the currently live table version",
                          extra);
  const auto apply = [&](const char* side) {
    return &reg.histogram(
        "rib_version_apply_ns",
        "Nanoseconds building the next version (delta apply or full "
        "rebuild), by the side of the delta",
        withExtra({{"side", side}}, extra));
  };
  o.apply_local_ns = apply("local");
  o.apply_neighbor_ns = apply("neighbor");
  o.grace_ns = &reg.histogram(
      "rib_version_grace_ns",
      "Nanoseconds waiting for readers to drain the retired version", extra);
  return o;
}

NetioObs NetioObs::bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra) {
  NetioObs o;
  o.shard = shard;
  o.rx_packets = &reg.counter("netio_rx_packets_total",
                              "Clue-tagged datagrams that decoded cleanly",
                              extra)
                      .shard(shard);
  o.rx_bytes =
      &reg.counter("netio_rx_bytes_total",
                   "Bytes of cleanly decoded ingress datagrams", extra)
           .shard(shard);
  o.tx_packets = &reg.counter("netio_tx_packets_total",
                              "Datagrams re-emitted toward a next-hop peer",
                              extra)
                      .shard(shard);
  o.tx_bytes = &reg.counter("netio_tx_bytes_total",
                            "Bytes of egress datagrams", extra)
                    .shard(shard);
  o.delivered =
      &reg.counter("netio_delivered_total",
                   "Packets routed to a next hop with no configured peer "
                   "(this router is their last clue-speaking hop)",
                   extra)
           .shard(shard);
  o.decode_errors =
      &reg.counter("netio_decode_errors_total",
                   "Ingress datagrams rejected by the wire codec", extra)
           .shard(shard);
  o.no_route = &reg.counter("netio_no_route_total",
                            "Packets dropped because the lookup found no BMP",
                            extra)
                    .shard(shard);
  o.ttl_expired = &reg.counter("netio_ttl_expired_total",
                               "Packets dropped on TTL reaching zero", extra)
                       .shard(shard);
  o.send_errors =
      &reg.counter("netio_send_errors_total",
                   "Egress datagrams the kernel refused (sendmsg failure)",
                   extra)
           .shard(shard);
  o.oracle_mismatch =
      &reg.counter("netio_oracle_mismatch_total",
                   "Differential-oracle disagreements: the clue-assisted "
                   "result differed from the plain engine BMP at the pinned "
                   "version",
                   extra)
           .shard(shard);
  return o;
}

void publishAccessCounter(MetricRegistry& reg,
                          const mem::AccessCounter& counter,
                          const Labels& extra) {
  counter.forEachNonZero([&](mem::Region r, std::uint64_t n) {
    reg.counter("mem_accesses_total",
                "Dependent memory references by region (the paper's access "
                "accounting)",
                withExtra({{"region", std::string(mem::regionName(r))}},
                          extra))
        .inc(n);
  });
}

}  // namespace cluert::obs
