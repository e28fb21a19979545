#include "dist/multi_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "obs/trace.h"
#include "storage/tpch_generator.h"
#include "util/serde.h"

namespace pushsip {

Status WireTransport(DistributedQuery& q,
                     const std::shared_ptr<Transport>& transport) {
  const int local = transport->local_site();
  if (local < 0 || local >= static_cast<int>(q.sites.size())) {
    return Status::InvalidArgument("the endpoint's site is not in the query");
  }
  // Channels this site consumes receive their frames via the endpoint.
  for (size_t i = 0; i < q.channels.size(); ++i) {
    const auto& channel = q.channels[i];
    if (channel->consumer_site() < 0) {
      return Status::Internal("channel " + std::to_string(i) +
                              " has no recorded consumer site");
    }
    if (channel->consumer_site() == local) {
      PUSHSIP_RETURN_NOT_OK(
          transport->BindChannel(static_cast<uint32_t>(i), channel));
    }
  }
  SiteEngine& site = *q.sites[static_cast<size_t>(local)];
  site.SetEndpoint(transport);
  // Every edge of the site's senders leaves through the new endpoint.
  for (const auto& fragment : site.fragments()) {
    for (const auto& op : fragment->operators()) {
      if (auto* sender = dynamic_cast<ExchangeSender*>(op.get())) {
        PUSHSIP_RETURN_NOT_OK(sender->OpenEdges(*transport));
      }
    }
  }
  return Status::OK();
}

namespace {

/// The composite endpoint WireInProcessTcp returns: every site's
/// TcpTransport lives in this process, and the whole-cluster calls (Heal,
/// TotalUsage for stats, Shutdown on teardown) fan out across all of them.
/// local_site() is -1 — the single-supervisor mode — and the per-site
/// calls are invalid: edges, bindings and filters go through the per-site
/// endpoints.
class InProcessTcpSet : public Transport {
 public:
  explicit InProcessTcpSet(
      std::vector<std::shared_ptr<TcpTransport>> endpoints)
      : endpoints_(std::move(endpoints)) {}

  const char* backend() const override { return "tcp"; }
  int local_site() const override { return -1; }
  int num_sites() const override {
    return static_cast<int>(endpoints_.size());
  }

  Status Start() override {
    for (const auto& e : endpoints_) PUSHSIP_RETURN_NOT_OK(e->Start());
    return Status::OK();
  }
  void Shutdown() override {
    for (const auto& e : endpoints_) e->Shutdown();
  }

  Status BindChannel(uint32_t, std::shared_ptr<ExchangeChannel>) override {
    return Status::InvalidArgument("bind channels on the site endpoints");
  }
  Result<std::shared_ptr<ChannelSender>> OpenChannel(uint32_t,
                                                     int) override {
    return Status::InvalidArgument("open channels on the site endpoints");
  }
  void SetFilterHandler(FilterHandler) override {}
  Result<double> ShipFilter(int, const std::string&, AttrId,
                            const BloomFilter&, ExecContext*) override {
    return Status::InvalidArgument("ship filters from the site endpoints");
  }

  Status Heal() override {
    Status first = Status::OK();
    for (const auto& e : endpoints_) {
      const Status st = e->Heal();
      if (!st.ok() && first.ok()) first = st;
    }
    return first;
  }

  LinkUsage TotalUsage() const override {
    LinkUsage total;
    for (const auto& e : endpoints_) {
      const LinkUsage u = e->TotalUsage();
      total.bytes += u.bytes;
      total.seconds += u.seconds;
    }
    return total;
  }

 private:
  std::vector<std::shared_ptr<TcpTransport>> endpoints_;
};

}  // namespace

Result<std::shared_ptr<Transport>> WireInProcessTcp(DistributedQuery& q,
                                                    uint32_t credit_window) {
  const int n = static_cast<int>(q.sites.size());
  if (n < 1) return Status::InvalidArgument("query has no sites");
  std::vector<std::shared_ptr<TcpTransport>> endpoints;
  for (int s = 0; s < n; ++s) {
    TcpTransportOptions to;
    to.local_site = s;
    to.num_sites = n;
    to.credit_window = credit_window;
    endpoints.push_back(std::make_shared<TcpTransport>(to));
    PUSHSIP_RETURN_NOT_OK(endpoints.back()->Listen());
  }
  std::vector<TcpPeer> all_peers;
  for (int s = 0; s < n; ++s) {
    all_peers.push_back({s, "127.0.0.1", endpoints[s]->listen_port()});
  }
  for (int s = 0; s < n; ++s) {
    std::vector<TcpPeer> others;
    for (const TcpPeer& p : all_peers) {
      if (p.site != s) others.push_back(p);
    }
    endpoints[s]->SetPeers(std::move(others));
    PUSHSIP_RETURN_NOT_OK(WireTransport(q, endpoints[s]));
  }
  auto set = std::make_shared<InProcessTcpSet>(std::move(endpoints));
  PUSHSIP_RETURN_NOT_OK(set->Start());
  q.transport = set;
  return std::shared_ptr<Transport>(set);
}

Result<SiteReport> RunScaleOutSite(const SiteProcessOptions& options,
                                   std::shared_ptr<Transport> transport) {
  if (options.site < 0 || options.site >= options.num_sites) {
    return Status::InvalidArgument("site id out of range");
  }
  TpchConfig gen;
  gen.scale_factor = options.scale_factor;
  gen.seed = options.seed;
  auto catalog = MakeTpchCatalog(gen);

  ScaleOutOptions so;
  so.num_sites = options.num_sites;
  so.aip = options.aip;
  so.weak_part_filter = options.weak_part_filter;
  so.batch_size = options.batch_size;
  so.deterministic_merge = options.deterministic_merge;
  so.exchange_idle_timeout_sec = options.exchange_idle_timeout_sec;
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedQuery> query,
                           BuildScaleOutQuery(options.query, catalog, so));
  query->transport = transport;
  query->local_site = options.site;
  query->root_site = 0;
  PUSHSIP_RETURN_NOT_OK(WireTransport(*query, transport));
  PUSHSIP_RETURN_NOT_OK(transport->Start());
  SiteReport out;
  PUSHSIP_ASSIGN_OR_RETURN(out.stats, query->Run());
  if (options.site == query->root_site) {
    std::vector<Tuple> rows = query->root_sink->TakeRows();
    // Result normalization: the sorted rows' standalone wire batch is the
    // canonical answer bytes the coordinator bit-compares against the
    // in-process run.
    std::sort(rows.begin(), rows.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    out.rows_wire = SerializeBatch(Batch::FromRows(rows));
  }
  // Our fragments are done, which means every peer feeding us already sent
  // its finish markers and everything we owed peers has been written;
  // closing now lets in-flight bytes drain (normal FIN semantics).
  transport->Shutdown();
  return out;
}

namespace {

/// Largest site count a multi-process run (and a `--peers` site id) spans.
constexpr int kMaxSites = 64;

/// Parses all of `text` as a decimal in [lo, hi].
bool ParseDecimal(std::string_view text, unsigned lo, unsigned hi,
                  unsigned* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out >= lo && *out <= hi;
}

void AppendCounter(int64_t v, std::string* out) { serde::AppendI64(v, out); }
void AppendCounter(double v, std::string* out) { serde::AppendF64(v, out); }
Status ReadCounter(serde::Reader& r, int64_t* v) { return r.ReadI64(v); }
Status ReadCounter(serde::Reader& r, double* v) { return r.ReadF64(v); }

}  // namespace

std::string EncodeSiteReport(const SiteReport& report) {
  std::string out;
  DistQueryStats::ForEachCounter([&](auto member, CounterMerge) {
    AppendCounter(report.stats.*member, &out);
  });
  serde::AppendBytes(report.rows_wire, &out);
  serde::AppendBytes(report.trace_events, &out);
  return out;
}

Result<SiteReport> DecodeSiteReport(const std::string& bytes) {
  serde::Reader reader(bytes);
  SiteReport report;
  Status st;
  DistQueryStats::ForEachCounter([&](auto member, CounterMerge) {
    if (st.ok()) st = ReadCounter(reader, &(report.stats.*member));
  });
  PUSHSIP_RETURN_NOT_OK(st);
  PUSHSIP_RETURN_NOT_OK(reader.ReadBytes(&report.rows_wire));
  PUSHSIP_RETURN_NOT_OK(reader.ReadBytes(&report.trace_events));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("site report has trailing bytes");
  }
  return report;
}

std::string HexEncode(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char byte : bytes) {
    const unsigned char c = static_cast<unsigned char>(byte);
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("odd-length hex string");
  }
  std::string out(hex.size() / 2, '\0');
  for (size_t i = 0; i < out.size(); ++i) {
    const char* pair = hex.data() + 2 * i;
    uint8_t byte = 0;
    const auto [ptr, ec] = std::from_chars(pair, pair + 2, byte, 16);
    if (ec != std::errc() || ptr != pair + 2) {
      return Status::InvalidArgument("non-hex character");
    }
    out[i] = static_cast<char>(byte);
  }
  return out;
}

std::string FormatPeers(const std::vector<TcpPeer>& peers) {
  std::string spec;
  for (const TcpPeer& peer : peers) {
    if (!spec.empty()) spec += ",";
    spec += std::to_string(peer.site) + "=" + peer.host + ":" +
            std::to_string(peer.port);
  }
  return spec;
}

Result<std::vector<TcpPeer>> ParsePeers(const std::string& spec) {
  std::vector<TcpPeer> peers;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string_view entry(spec.data() + pos, comma - pos);
    pos = comma + 1;
    const size_t eq = entry.find('=');
    const size_t colon = entry.rfind(':');
    unsigned site = 0;
    unsigned port = 0;
    if (eq == std::string_view::npos || colon == std::string_view::npos ||
        colon <= eq + 1 ||
        !ParseDecimal(entry.substr(0, eq), 0, kMaxSites - 1, &site) ||
        !ParseDecimal(entry.substr(colon + 1), 1, 65535, &port)) {
      return Status::InvalidArgument("malformed peer entry '" +
                                     std::string(entry) +
                                     "' (want site=host:port)");
    }
    peers.push_back({static_cast<int>(site),
                     std::string(entry.substr(eq + 1, colon - eq - 1)),
                     static_cast<uint16_t>(port)});
  }
  return peers;
}

std::string FindSiteBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string dir(buf);
  const size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  for (const std::string& candidate :
       {dir + "/pushsip_site", dir + "/../tools/pushsip_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

namespace {

/// Binds `n` loopback listeners on ephemeral ports, records the ports, and
/// releases them. All sockets stay open until every port is picked so the
/// kernel cannot hand the same port out twice within the batch.
Result<std::vector<uint16_t>> PickFreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  Status failure = Status::OK();
  for (int i = 0; i < n && failure.ok(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      failure = Status::IOError("socket: " + std::string(strerror(errno)));
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      failure = Status::IOError("bind: " + std::string(strerror(errno)));
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (!failure.ok()) return failure;
  return ports;
}

struct ChildProc {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout pipe
  std::string output;
};

/// Drains every child's stdout until EOF. The children run concurrently,
/// so the pipes must be polled together — reading them one by one could
/// deadlock a writer blocked on a full pipe the reader has not reached.
Status DrainChildren(std::vector<ChildProc>& children) {
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.clear();
    for (const ChildProc& child : children) {
      if (child.out >= 0) pfds.push_back({child.out, POLLIN, 0});
    }
    if (pfds.empty()) return Status::OK();
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll: " + std::string(strerror(errno)));
    }
    for (const pollfd& pfd : pfds) {
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ChildProc* child = nullptr;
      for (ChildProc& c : children) {
        if (c.out == pfd.fd) child = &c;
      }
      char buf[65536];
      const ssize_t n = ::read(pfd.fd, buf, sizeof(buf));
      if (n > 0) {
        child->output.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        ::close(child->out);
        child->out = -1;
      }
    }
  }
}

}  // namespace

Result<MultiProcessResult> RunMultiProcess(const MultiProcessOptions& options) {
  if (options.num_sites < 1 || options.num_sites > kMaxSites) {
    return Status::InvalidArgument("num_sites must be in [1, 64]");
  }
  const std::string binary =
      options.site_binary.empty() ? FindSiteBinary() : options.site_binary;
  if (binary.empty() || ::access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound(
        "pushsip_site binary not found (looked next to this executable and "
        "in ../tools; override with MultiProcessOptions::site_binary)");
  }
  PUSHSIP_ASSIGN_OR_RETURN(std::vector<uint16_t> ports,
                           PickFreePorts(options.num_sites));
  std::vector<TcpPeer> peer_list;
  for (int i = 0; i < options.num_sites; ++i) {
    peer_list.push_back({i, "127.0.0.1", ports[i]});
  }
  const std::string peers = FormatPeers(peer_list);

  char sf[64];
  std::snprintf(sf, sizeof(sf), "%.17g", options.scale_factor);
  std::vector<ChildProc> children(options.num_sites);
  Status spawn_failure = Status::OK();
  for (int i = 0; i < options.num_sites; ++i) {
    // argv is fully materialized before fork: the child must not allocate
    // between fork and exec (the parent may have been multi-threaded).
    std::vector<std::string> args = {
        binary,
        "--site=" + std::to_string(i),
        "--sites=" + std::to_string(options.num_sites),
        "--query=" + std::string(options.query == ScaleOutQuery::kQ17
                                     ? "q17"
                                     : "subquery"),
        "--sf=" + std::string(sf),
        "--seed=" + std::to_string(options.seed),
        "--port=" + std::to_string(ports[i]),
        "--peers=" + peers,
        "--aip=" + std::to_string(options.aip ? 1 : 0),
        "--weak-filter=" + std::to_string(options.weak_part_filter ? 1 : 0),
        "--merge=" + std::to_string(options.deterministic_merge ? 1 : 0),
        "--window=" + std::to_string(options.credit_window),
        "--batch=" + std::to_string(options.batch_size),
    };
    if (options.trace) {
      // Turns site tracing on, with every child's clock aligned to the
      // coordinator's epoch so the merged trace shares one time axis.
      args.push_back("--trace-epoch=" +
                     std::to_string(obs::Trace::epoch_micros()));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      spawn_failure = Status::IOError("pipe: " + std::string(strerror(errno)));
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      spawn_failure = Status::IOError("fork: " + std::string(strerror(errno)));
      break;
    }
    if (pid == 0) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      ::execv(binary.c_str(), argv.data());
      const char msg[] = "execv pushsip_site failed\n";
      const ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
      (void)ignored;
      ::_exit(127);
    }
    ::close(pipefd[1]);
    children[i].pid = pid;
    children[i].out = pipefd[0];
  }

  Status failure =
      spawn_failure.ok() ? DrainChildren(children) : spawn_failure;
  for (int i = 0; i < options.num_sites; ++i) {
    ChildProc& child = children[i];
    if (child.pid < 0) continue;
    if (!failure.ok()) ::kill(child.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(child.pid, &wstatus, 0);
    if (child.out >= 0) {
      ::close(child.out);
      child.out = -1;
    }
    if (failure.ok() &&
        (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
      failure = Status::Internal("site " + std::to_string(i) +
                                 " process failed (status " +
                                 std::to_string(wstatus) + ")");
    }
  }
  if (!failure.ok()) return failure;

  MultiProcessResult result;
  for (int i = 0; i < options.num_sites; ++i) {
    // A site's whole stdout is its one report line.
    const std::string& out = children[i].output;
    if (out.rfind("REPORT ", 0) != 0 || out.back() != '\n') {
      return Status::Internal("site " + std::to_string(i) +
                              " printed no REPORT line");
    }
    PUSHSIP_ASSIGN_OR_RETURN(const std::string bytes,
                             HexDecode(out.substr(7, out.size() - 8)));
    PUSHSIP_ASSIGN_OR_RETURN(SiteReport report, DecodeSiteReport(bytes));
    result.stats.Merge(report.stats);
    result.per_site.push_back(report.stats);
    if (i == 0) result.rows_wire = std::move(report.rows_wire);
    if (!report.trace_events.empty()) {
      if (!result.trace_events_json.empty()) result.trace_events_json += ",";
      result.trace_events_json += report.trace_events;
    }
  }
  if (result.rows_wire.empty()) {
    return Status::Internal("root site reported no answer");
  }
  return result;
}

}  // namespace pushsip
