// The wire workload: an in-process netio::Daemon with 2 datapath shards
// over loopback, fed the smallest datagram (header + 16 B payload).
//
// Closed loop: one injector thread keeps a fixed window of datagrams in
// flight, one socket per shard; one sink thread receives, decodes and checks
// every datagram the daemon re-emits. Before timing, each injector socket
// is mapped to the shard that receives its probe datagram (per-shard
// rxPackets()); sockets are reopened until every shard owns one, so the
// SO_REUSEPORT spread is the same on every run. The pipeline is not used:
// syscalls and the codec dominate.
//
// Loss is counted from both sides: sent minus daemon rx (drops before the
// daemon read them), and the kernel's own Udp RcvbufErrors / InErrors from
// /proc/net/snmp around the run.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "layers.h"
#include "ledger.h"
#include "netio/daemon.h"
#include "netio/wire.h"

namespace perfbench {

using namespace cluert;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 512;        // datagrams in flight
constexpr std::size_t kBurst = 32;          // sendmmsg batch
constexpr std::size_t kPoolSize = 65'536;   // distinct datagrams
constexpr std::size_t kPayload = 16;        // u64 pool index, u64 send time
constexpr std::uint32_t kLoopback = 0x7f000001;
constexpr double kSliceSeconds = 0.05;      // pps: sustained rate of slices
constexpr int kSetupReps = 9;

struct UdpCounters {
  std::uint64_t rcvbuf_errors = 0;
  std::uint64_t in_errors = 0;
};

// The kernel's UDP counters for this network namespace.
UdpCounters readUdpCounters() {
  std::ifstream in("/proc/net/snmp");
  std::string header, values, line;
  while (std::getline(in, line)) {
    if (line.rfind("Udp: ", 0) != 0) continue;
    if (header.empty()) {
      header = line;
    } else {
      values = line;
      break;
    }
  }
  UdpCounters c;
  std::istringstream hs(header), vs(values);
  std::string name, value;
  while (hs >> name && vs >> value) {
    if (name == "RcvbufErrors") c.rcvbuf_errors = std::stoull(value);
    if (name == "InErrors") c.in_errors = std::stoull(value);
  }
  return c;
}

void putU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

struct RouteFiles {
  std::string receiver, sender;
  ~RouteFiles() {
    if (!receiver.empty()) ::unlink(receiver.c_str());
    if (!sender.empty()) ::unlink(sender.c_str());
  }
};

void writeFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
  CLUERT_CHECK(out.good()) << "cannot write " << path;
}

// The datagrams the injector sends, and what the sink must see back.
struct WirePool {
  std::vector<std::vector<std::uint8_t>> dgrams;
  std::vector<A> dests;
  std::vector<core::ClueField> clues;  // as sent (sender BMP length)
  std::vector<std::uint8_t> expect_len;  // receiver BMP length: the re-clue
};

WirePool makeWirePool(const TablePair& t, Rng& rng) {
  const DestPool dp = makeDestPool(t, kPoolSize, rng, /*routed_only=*/true);
  const trie::BinaryTrie4 t2 = t.receiver.buildTrie();
  mem::AccessCounter scratch;
  WirePool p;
  const std::size_t size = netio::headerBytes<A>() + kPayload;
  for (std::size_t i = 0; i < dp.dests.size(); ++i) {
    const auto bmp = t2.lookup(dp.dests[i], scratch);
    CLUERT_CHECK(bmp.has_value()) << "pool destination without a route";
    std::uint8_t payload[kPayload] = {};
    putU64(payload, i);
    netio::WirePacket<A> w;
    w.dest = dp.dests[i];
    w.clue = dp.clues[i];
    w.payload = {payload, kPayload};
    std::vector<std::uint8_t> buf(size);
    CLUERT_CHECK(netio::encode<A>(w, buf) == size) << "pool encode";
    p.dgrams.push_back(std::move(buf));
    p.dests.push_back(dp.dests[i]);
    p.clues.push_back(dp.clues[i]);
    p.expect_len.push_back(static_cast<std::uint8_t>(bmp->prefix.length()));
  }
  return p;
}

// Receives, decodes and checks every datagram the daemon emits.
class Sink {
 public:
  Sink(const WirePool& pool, bool keep_latency)
      : pool_(pool), keep_latency_(keep_latency) {
    fd_ = netio::udpSocket({kLoopback, 0}, false, 8 << 20);
    CLUERT_CHECK(fd_.valid()) << "sink bind failed";
    addr_ = *netio::localAddr(fd_.get());
    thread_ = std::thread([this] { loop(); });
  }
  ~Sink() { stop(); }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  const netio::SockAddr& addr() const { return addr_; }
  std::uint64_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  std::uint64_t wrong() const { return wrong_.load(std::memory_order_relaxed); }
  std::uint64_t undecodable() const {
    return undecodable_.load(std::memory_order_relaxed);
  }
  double recvNsPerDgram() const {
    return ratio(static_cast<double>(recv_ns_.load(std::memory_order_relaxed)),
                 static_cast<double>(received()));
  }
  std::size_t latencyCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latency_us_.size();
  }
  std::vector<double> latencySince(std::size_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    return {latency_us_.begin() + static_cast<std::ptrdiff_t>(from),
            latency_us_.end()};
  }

 private:
  void loop() {
    std::vector<netio::DatagramBuf> bufs(64);
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t t0 = nowNs();
      const int n = netio::recvBatch(fd_.get(), bufs.data(), 64);
      if (n <= 0) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t now = nowNs();
      recv_ns_.fetch_add(now - t0, std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) check(bufs[static_cast<std::size_t>(i)], now);
      received_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_release);
    }
  }

  void check(const netio::DatagramBuf& b, std::uint64_t now) {
    const auto r =
        netio::decode<A>(std::span<const std::uint8_t>(b.data.data(), b.len));
    if (!r.ok() || r.packet.payload.size() != kPayload) {
      ++undecodable_;
      return;
    }
    const std::uint64_t idx = getU64(r.packet.payload.data());
    if (idx >= pool_.dests.size() || r.packet.dest != pool_.dests[idx] ||
        !r.packet.clue.present ||
        r.packet.clue.length != pool_.expect_len[idx] ||
        r.packet.ttl != netio::kDefaultTtl - 1) {
      ++wrong_;
      return;
    }
    if (keep_latency_) {
      const std::uint64_t due = getU64(r.packet.payload.data() + 8);
      if (due != 0 && now > due) {
        std::lock_guard<std::mutex> lock(mu_);
        latency_us_.push_back(static_cast<double>(now - due) / 1e3);
      }
    }
  }

  const WirePool& pool_;
  bool keep_latency_;
  netio::Fd fd_;
  netio::SockAddr addr_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> wrong_{0}, undecodable_{0};
  std::atomic<std::uint64_t> recv_ns_{0};
  mutable std::mutex mu_;
  std::vector<double> latency_us_;
  std::thread thread_;
};

struct Plant {
  std::unique_ptr<netio::Daemon> daemon;
  double start_s = 0;
};

netio::Config daemonConfig(const RouteFiles& files, const netio::SockAddr& sink,
                           std::uint32_t trace_sample) {
  netio::Config cfg;
  cfg.name = "perfbench_wire";
  cfg.router_id = 1;
  cfg.listen = {kLoopback, 0};
  cfg.admin = {kLoopback, 0};
  cfg.routes = files.receiver;
  cfg.neighbor_routes = files.sender;
  cfg.default_peer = sink;
  cfg.mode = lookup::ClueMode::kSimple;
  cfg.method = lookup::Method::kPatricia;
  cfg.workers = kShards;
  cfg.rcvbuf = 8 << 20;
  cfg.drain_ms = 100;
  cfg.trace_sample = trace_sample;
  return cfg;
}

Plant startDaemon(const netio::Config& cfg) {
  Plant p;
  const auto t0 = Clock::now();
  p.daemon = std::make_unique<netio::Daemon>(cfg);
  p.daemon->start();
  p.start_s = secondsSince(t0);
  return p;
}

std::vector<std::uint64_t> shardRx(netio::Daemon& d) {
  std::vector<std::uint64_t> rx;
  for (std::size_t i = 0; i < d.datapathCount(); ++i) {
    rx.push_back(d.datapath(i).rxPackets());
  }
  return rx;
}

// One socket per shard: each candidate socket sends one probe datagram and
// keeps its place only if the shard that received it has no socket yet.
struct Steering {
  std::vector<netio::Fd> sockets;      // index = shard
  std::vector<std::size_t> opened;     // shard each tried socket reached
  std::uint64_t probes = 0;
  bool complete = false;
};

Steering steer(netio::Daemon& d, const WirePool& pool) {
  Steering s;
  s.sockets.resize(d.datapathCount());
  std::size_t owned = 0;
  for (int attempt = 0; attempt < 64 && owned < s.sockets.size(); ++attempt) {
    netio::Fd fd = netio::udpSocket({kLoopback, 0});
    CLUERT_CHECK(fd.valid()) << "injector socket";
    const auto before = shardRx(d);
    const netio::OutDatagram probe{pool.dgrams[0].data(),
                                   pool.dgrams[0].size(), d.dataAddr()};
    CLUERT_CHECK(netio::sendBatch(fd.get(), &probe, 1) == 1) << "probe send";
    ++s.probes;
    std::size_t shard = s.sockets.size();
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (shard == s.sockets.size() && Clock::now() < deadline) {
      const auto now = shardRx(d);
      for (std::size_t i = 0; i < now.size(); ++i) {
        if (now[i] != before[i]) shard = i;
      }
      if (shard == s.sockets.size()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    CLUERT_CHECK(shard < s.sockets.size()) << "probe datagram never arrived";
    s.opened.push_back(shard);
    if (!s.sockets[shard].valid()) {
      s.sockets[shard] = std::move(fd);
      ++owned;
    }
  }
  // An incomplete map still sends, from the sockets it kept; the run's
  // output line flags it and shard_rx_imbalance shows the skew.
  s.complete = owned == s.sockets.size();
  return s;
}

// The closed-loop injector: keeps `kWindow` datagrams in flight, bursts of
// kBurst round-robin over the steered sockets.
class Injector {
 public:
  Injector(const WirePool& pool, const Steering& st, const Sink& sink,
           netio::SockAddr to)
      : pool_(pool), sink_(sink), to_(to) {
    for (const auto& fd : st.sockets) {
      if (fd.valid()) fds_.push_back(fd.get());
    }
    base_received_ = sink.received();
    thread_ = std::thread([this] { loop(); });
  }
  ~Injector() { stop(); }
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t sent() const { return sent_.load(std::memory_order_acquire); }
  // Valid after stop().
  double sendNsPerDgram() const {
    return ratio(static_cast<double>(send_ns_), static_cast<double>(sent()));
  }
  std::uint64_t stalls() const { return stalls_; }

 private:
  void loop() {
    std::vector<netio::OutDatagram> out(kBurst);
    std::size_t next = 0, sock = 0;
    std::uint64_t sent = 0, written_off = 0, last_rx = 0;
    auto last_progress = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t rx = sink_.received() - base_received_;
      if (rx != last_rx) {
        last_rx = rx;
        last_progress = Clock::now();
      }
      const std::uint64_t inflight =
          sent > rx + written_off ? sent - rx - written_off : 0;
      if (inflight + kBurst > kWindow) {
        // A lost datagram never comes back: after 100 ms without progress
        // the outstanding window is written off so the loop keeps going
        // (the loss itself is counted from sent minus received).
        if (Clock::now() - last_progress > std::chrono::milliseconds(100)) {
          written_off += inflight;
          ++stalls_;
          last_progress = Clock::now();
        }
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < kBurst; ++i) {
        const auto& d = pool_.dgrams[(next + i) % pool_.dgrams.size()];
        out[i] = {d.data(), d.size(), to_};
      }
      const std::uint64_t t0 = nowNs();
      const int n = netio::sendBatch(fds_[sock], out.data(),
                                     static_cast<int>(kBurst));
      send_ns_ += nowNs() - t0;
      sock = (sock + 1) % fds_.size();
      if (n > 0) {
        next += static_cast<std::size_t>(n);
        sent += static_cast<std::uint64_t>(n);
        sent_.store(sent, std::memory_order_release);
      }
    }
  }

  const WirePool& pool_;
  const Sink& sink_;
  netio::SockAddr to_;
  std::vector<int> fds_;
  std::uint64_t base_received_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::uint64_t send_ns_ = 0, stalls_ = 0;
  std::thread thread_;
};

// Waits (bounded) until the sink has everything the daemon will emit.
void drain(const Sink& sink, std::uint64_t expected) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  while (sink.received() < expected && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct ClosedLoop {
  std::vector<double> slice_pps;
  std::uint64_t sent = 0, received = 0;
  std::uint64_t daemon_rx = 0;
  std::vector<std::uint64_t> shard_rx;
  double send_ns = 0;
  std::uint64_t wrong = 0, undecodable = 0;
  std::uint64_t stalls = 0;  // windows written off after 100 ms of silence
  UdpCounters kernel;
  std::string map;
  bool steered = false;
  double pps() const { return sustainedRate(slice_pps); }
};

// One closed-loop run against a started daemon: steer, warm up, measure
// `seconds` in slices, drain, and account every datagram.
ClosedLoop runClosedLoop(netio::Daemon& d, Sink& sink, const WirePool& pool,
                         double seconds) {
  ClosedLoop c;
  const UdpCounters k0 = readUdpCounters();
  const auto rx0 = shardRx(d);
  const std::uint64_t sink0 = sink.received();
  const std::uint64_t wrong0 = sink.wrong(), undecodable0 = sink.undecodable();
  Steering st = steer(d, pool);
  c.steered = st.complete;
  for (std::size_t i = 0; i < st.opened.size(); ++i) {
    c.map += (i ? "," : "") + std::to_string(st.opened[i]);
  }
  drain(sink, sink0 + st.probes);
  {
    Injector inj(pool, st, sink, d.dataAddr());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm-up
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSliceSeconds));
    const auto shard0 = shardRx(d);
    auto t = Clock::now();
    std::uint64_t got = sink.received();
    const auto end = t + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    while (t < end) {
      std::this_thread::sleep_until(t + slice);
      const auto now = Clock::now();
      const std::uint64_t g = sink.received();
      c.slice_pps.push_back(static_cast<double>(g - got) /
                            std::chrono::duration<double>(now - t).count());
      got = g;
      t = now;
    }
    const auto shard1 = shardRx(d);
    for (std::size_t i = 0; i < shard1.size(); ++i) {
      c.shard_rx.push_back(shard1[i] - shard0[i]);
    }
    inj.stop();
    c.sent = inj.sent() + st.probes;
    c.send_ns = inj.sendNsPerDgram();
    c.stalls = inj.stalls();
  }
  drain(sink, sink0 + c.sent);
  c.received = sink.received() - sink0;
  c.wrong = sink.wrong() - wrong0;
  c.undecodable = sink.undecodable() - undecodable0;
  const auto rx1 = shardRx(d);
  for (std::size_t i = 0; i < rx1.size(); ++i) c.daemon_rx += rx1[i] - rx0[i];
  const UdpCounters k1 = readUdpCounters();
  c.kernel.rcvbuf_errors = k1.rcvbuf_errors - k0.rcvbuf_errors;
  c.kernel.in_errors = k1.in_errors - k0.in_errors;
  return c;
}

// Open-loop paced injection at `rate` datagrams/s: every datagram carries
// its due time; the sink measures due-to-receipt latency, the injector
// records how late it actually sent.
struct Paced {
  std::vector<double> lateness_us;
};

Paced runPaced(netio::Daemon& d, const WirePool& pool, const Steering& st,
               double rate, double seconds) {
  Paced p;
  std::vector<int> fds;
  for (const auto& fd : st.sockets) {
    if (fd.valid()) fds.push_back(fd.get());
  }
  std::vector<std::uint8_t> buf;
  const std::uint64_t n = static_cast<std::uint64_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  const std::uint64_t start_ns = nowNs();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t due = start_ns + static_cast<std::uint64_t>(
                                             period_ns * static_cast<double>(i));
    while (nowNs() < due) {
    }
    buf = pool.dgrams[i % pool.dgrams.size()];
    putU64(buf.data() + netio::headerBytes<A>() + 8, due);
    const netio::OutDatagram out{buf.data(), buf.size(), d.dataAddr()};
    const std::uint64_t sent_at = nowNs();
    netio::sendBatch(fds[i % fds.size()], &out, 1);
    p.lateness_us.push_back(static_cast<double>(sent_at - due) / 1e3);
  }
  return p;
}

// Hop phases from the traced daemon's PacketSpans.
void reportHopPhases(netio::Daemon& d, Result& r) {
  std::vector<double> decode, lookup, residence;
  for (std::size_t i = 0; i < d.datapathCount(); ++i) {
    for (const obs::PacketSpan& s : d.datapath(i).drainSpans()) {
      if (s.decode_ns >= s.rx_ns) {
        decode.push_back(static_cast<double>(s.decode_ns - s.rx_ns) / 1e3);
      }
      if (s.lookup_end_ns >= s.lookup_start_ns) {
        lookup.push_back(
            static_cast<double>(s.lookup_end_ns - s.lookup_start_ns) / 1e3);
      }
      const std::uint64_t end = s.tx_ns != 0 ? s.tx_ns : s.lookup_end_ns;
      if (end >= s.rx_ns) {
        residence.push_back(static_cast<double>(end - s.rx_ns) / 1e3);
      }
    }
  }
  setP50P99(r, "netio.hop_decode_us.p50", "netio.hop_decode_us.p99", decode);
  setP50P99(r, "netio.hop_lookup_us.p50", "netio.hop_lookup_us.p99", lookup);
  setP50P99(r, "netio.hop_residence_us.p50", "netio.hop_residence_us.p99",
            residence);
}

void account(const ClosedLoop& c, Result& r) {
  r.attempted += c.sent;
  const std::uint64_t lost = c.sent > c.received ? c.sent - c.received : 0;
  r.failed += lost + c.wrong + c.undecodable;
  if (c.wrong != 0) r.fail("wire: delivered datagram differs from the oracle");
  if (c.undecodable != 0) r.fail("wire: undecodable datagram at the sink");
}

// Codec cost over the pool, single thread.
void measureCodec(const WirePool& pool, Result& r) {
  const auto timed = [&](auto&& body) {
    std::vector<double> reps;
    for (int rep = 0; rep < 15; ++rep) {
      const std::uint64_t t0 = nowNs();
      body();
      reps.push_back(static_cast<double>(nowNs() - t0) /
                     static_cast<double>(pool.dgrams.size()));
    }
    return median(reps);
  };
  std::uint64_t sink = 0;
  r.set("netio.codec_decode_ns", timed([&] {
          for (const auto& d : pool.dgrams) {
            const auto res = netio::decode<A>(d);
            sink += res.packet.ttl;
          }
        }));
  std::vector<std::uint8_t> buf(netio::kMaxDatagram);
  std::uint8_t payload[kPayload] = {};
  r.set("netio.codec_encode_ns", timed([&] {
          for (std::size_t i = 0; i < pool.dests.size(); ++i) {
            netio::WirePacket<A> w;
            w.dest = pool.dests[i];
            w.clue = pool.clues[i];
            w.payload = {payload, kPayload};
            sink += netio::encode<A>(w, buf);
          }
        }));
  keep(sink);
}

}  // namespace

void runWire(const Args& args, Result& r) {
  const TablePair tables = makeTablePair(args.seed);
  Rng rng(args.seed ^ 0x3117e5ull);
  const WirePool pool = makeWirePool(tables, rng);
  RouteFiles files;
  const std::string dir = scratchDir();
  const std::string stem =
      dir + "/wire-" + std::to_string(::getpid()) + "-";
  files.receiver = stem + "receiver.routes";
  files.sender = stem + "sender.routes";
  writeFile(files.receiver, tables.receiver.serialize());
  writeFile(files.sender, tables.sender.serialize());

  Sink sink(pool, /*keep_latency=*/args.trace);
  const double rss0 = rssMb();
  std::vector<double> setup_s;
  Plant plant = startDaemon(daemonConfig(files, sink.addr(), 0));
  setup_s.push_back(plant.start_s);
  const double rss_setup = rssMb() - rss0;
  for (int rep = 1; rep < kSetupReps; ++rep) {
    Plant extra = startDaemon(daemonConfig(files, sink.addr(), 0));
    setup_s.push_back(extra.start_s);
    extra.daemon->stop();
  }

  const double rss_run0 = rssMb();
  const double untraced_s = args.trace ? args.seconds * 0.4 : args.seconds;
  const ClosedLoop c = runClosedLoop(*plant.daemon, sink, pool, untraced_s);
  account(c, r);
  const double rss_run = rssMb() - rss_run0;
  std::printf(
      "wire: %.0f pps sustained over %zu slices, sent %llu received %llu, "
      "daemon rx %llu, shard rx [%llu, %llu], socket->shard probes [%s]%s, "
      "%llu window write-offs\n",
      c.pps(), c.slice_pps.size(), static_cast<unsigned long long>(c.sent),
      static_cast<unsigned long long>(c.received),
      static_cast<unsigned long long>(c.daemon_rx),
      static_cast<unsigned long long>(c.shard_rx.empty() ? 0 : c.shard_rx[0]),
      static_cast<unsigned long long>(c.shard_rx.size() < 2 ? 0
                                                             : c.shard_rx[1]),
      c.map.c_str(), c.steered ? "" : " (incomplete: a shard has no socket)",
      static_cast<unsigned long long>(c.stalls));
  printQuartiles("wire slice pps", c.slice_pps, "1/s");
  printQuartiles("wire setup", setup_s, "s");

  r.set("pps", c.pps());
  r.set("hops_per_s", c.pps());
  r.set("setup_s", median(setup_s));
  r.set("rss_mb", rss_setup + rss_run);

  if (args.trace) {
    r.set("netio.daemon_start_s", median(setup_s));
    r.set("netio.inject_send_ns_per_dgram", c.send_ns);
    r.set("netio.sink_recv_ns_per_dgram", sink.recvNsPerDgram());
    r.set("netio.shard_rx_imbalance", imbalance(c.shard_rx));
    r.set("netio.kernel_drops",
          static_cast<double>(c.sent > c.daemon_rx ? c.sent - c.daemon_rx : 0));
    r.set("netio.udp_rcvbuf_errors",
          static_cast<double>(c.kernel.rcvbuf_errors));
    r.set("netio.udp_in_errors", static_cast<double>(c.kernel.in_errors));

    // Open loop at a fixed rate well under capacity, on the same daemon.
    {
      const std::uint64_t base = sink.received();
      Steering st = steer(*plant.daemon, pool);
      const std::uint64_t probes = st.probes;
      drain(sink, base + probes);
      const std::size_t lat0 = sink.latencyCount();
      const Paced p =
          runPaced(*plant.daemon, pool, st, 50'000.0, args.seconds * 0.2);
      drain(sink, base + probes + p.lateness_us.size());
      const std::vector<double> lat = sink.latencySince(lat0);
      setP50P99(r, "netio.paced_latency_p50_us", "netio.paced_latency_p99_us",
                lat);
      r.set("netio.paced_lateness_p99_us",
            percentile(p.lateness_us, 0.99).value_or(0.0));
      const std::uint64_t sent = probes + p.lateness_us.size();
      const std::uint64_t got = sink.received() - base;
      r.attempted += sent;
      r.failed += sent > got ? sent - got : 0;
    }

    // Traced daemon: 1-in-64 PacketSpans on.
    plant.daemon->stop();
    plant.daemon.reset();
    Plant traced = startDaemon(daemonConfig(files, sink.addr(), 64));
    const ClosedLoop tc =
        runClosedLoop(*traced.daemon, sink, pool, args.seconds * 0.4);
    account(tc, r);
    reportHopPhases(*traced.daemon, r);
    r.set("obs.trace_overhead", overhead(tc.pps(), c.pps()));
    r.set("obs.trace_overhead.untraced", c.pps());
    r.set("obs.trace_overhead.traced", tc.pps());
    traced.daemon->stop();

    measureCodec(pool, r);

    // core/lookup on the daemon's tables, replayed by the benchmark: the
    // same Simple/Patricia port the datapaths run, over the pool the
    // injector cycles through uniformly.
    const auto t_suite = Clock::now();
    const auto suite = buildSuite(tables.receiver);
    r.set("lookup.suite_build_s", secondsSince(t_suite));
    core::CluePort<A> port(
        *suite, nullptr,
        portOptions(lookup::ClueMode::kSimple, tables.sender.size() + 16));
    const auto t_pre = Clock::now();
    port.precompute(tables.sender.prefixes());
    r.set("core.precompute_s", secondsSince(t_pre));
    mem::AccessCounter acc;
    for (std::size_t i = 0; i < pool.dests.size(); ++i) {
      port.process(pool.dests[i], pool.clues[i], acc);
    }
    const double n = static_cast<double>(pool.dests.size());
    const auto& ps = port.stats();
    reportAccesses(acc, n, r);
    reportShares(ps.fd_direct, ps.searched, ps.search_failed, ps.table_misses,
                 n, r);
    const CoreTimes ct =
        measureCore(port, port.hashTable(),
                    suite->engine(lookup::Method::kPatricia), pool.dests,
                    pool.clues);
    reportCore(ct, r);
  } else {
    plant.daemon->stop();
  }
  sink.stop();
  if (sink.wrong() != 0 || sink.undecodable() != 0) {
    r.fail("wire: sink saw wrong or undecodable datagrams");
  }
}

}  // namespace perfbench
