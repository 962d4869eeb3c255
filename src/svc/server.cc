#include "svc/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "telem/exposition.hh"

namespace stitch::svc
{

namespace
{

/** send() until done; false on error. MSG_NOSIGNAL: a peer that hung
 *  up mid-response must surface as EPIPE (-> the "client hung up"
 *  warning), never as a process-fatal SIGPIPE. */
bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Bound one direction (SO_RCVTIMEO / SO_SNDTIMEO) of `fd`'s I/O. */
void
setTimeout(int fd, int option, std::uint64_t ms)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

/** read() until `len` bytes; false on error/EOF. */
bool
readAll(int fd, void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0) {
            errno = 0;    // clean EOF, not an I/O error
            return false; // peer closed mid-frame
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendFrame(int fd, const std::string &payload)
{
    std::uint32_t len = htonl(
        static_cast<std::uint32_t>(payload.size()));
    return writeAll(fd, &len, sizeof len) &&
           writeAll(fd, payload.data(), payload.size());
}

/** Receive one frame into `payload`. Returns why no whole frame
 *  arrived — each violation gets its own typed message instead of one
 *  generic "malformed" (or, worse, a silent close) — or "" when one
 *  did. `timeoutMs` is the SO_RCVTIMEO in effect, for the message. */
std::string
recvFrame(int fd, std::string &payload, std::uint32_t maxBytes,
          std::uint64_t timeoutMs)
{
    auto ioFailure = [timeoutMs]() -> std::string {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return detail::formatMessage("read timed out after ",
                                         timeoutMs, " ms mid-request");
        return "connection closed before a complete frame arrived";
    };
    std::uint32_t len = 0;
    if (!readAll(fd, &len, sizeof len))
        return ioFailure();
    len = ntohl(len);
    if (len > maxBytes)
        return detail::formatMessage("request frame of ", len,
                                     " bytes exceeds the ", maxBytes,
                                     "-byte limit");
    payload.resize(len);
    if (len > 0 && !readAll(fd, payload.data(), len))
        return ioFailure();
    return "";
}

/** The Server a shutdown signal drains. */
std::atomic<Server *> gSignalled{nullptr};

void
onShutdownSignal(int)
{
    if (Server *server = gSignalled.load())
        server->stop(); // async-signal-safe
}

/** The frame-to-response skeleton both answer paths share: a framing
 *  violation or a request that does not parse answers a typed error
 *  (reported to `onProtocolFailure`), anything else `answer`. */
obs::Json
frameResponse(
    const Frame &frame,
    const std::function<obs::Json(const obs::Json &)> &answer,
    const std::function<void(const std::string &)> &onProtocolFailure)
{
    if (!frame.violation.empty()) {
        onProtocolFailure(frame.violation);
        return errorResponseJson("protocol", frame.violation);
    }
    try {
        return answer(obs::Json::parse(frame.text));
    } catch (const FatalError &e) {
        // Json::parse fatals on malformed text; a handler that fatals
        // answers typed too.
        onProtocolFailure(e.what());
        return errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return errorResponseJson("internal", e.what());
    }
}

} // namespace

obs::Json
errorResponseJson(const std::string &kind,
                  const std::string &message)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", responseSchema);
    doc.set("version", responseVersion);
    doc.set("status", "error");
    doc.set("error_kind", kind);
    doc.set("error", message);
    return doc;
}

obs::Json
handleRequest(JobEngine &engine, const obs::Json &jobDoc,
              int *jobIdOut)
{
    int id = -1;
    if (jobIdOut)
        *jobIdOut = -1;
    try {
        id = engine.submit(jobDoc);
    } catch (const OverloadedError &e) {
        // Admission-control rejection: the typed cue for the client
        // to back off and retry (requestReportWithRetry does).
        return errorResponseJson("overloaded", e.what());
    } catch (const fault::ConfigError &e) {
        return errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return errorResponseJson("internal", e.what());
    }
    if (jobIdOut)
        *jobIdOut = id;
    engine.run();

    const JobResult &result = engine.result(id);
    if (result.status != JobResult::Status::Completed) {
        obs::Json doc = errorResponseJson(
            result.errorKind.empty() ? "internal" : result.errorKind,
            result.error.empty()
                ? std::string("job ended ") +
                      jobStatusName(result.status)
                : result.error);
        doc.set("trace_id", telem::traceIdHex(result.traceId));
        return doc;
    }

    obs::Json doc = obs::Json::object();
    doc.set("schema", responseSchema);
    doc.set("version", responseVersion);
    doc.set("status", "ok");
    doc.set("cached", result.cached);
    doc.set("key", result.key);
    doc.set("trace_id", telem::traceIdHex(result.traceId));
    doc.set("report", result.report);
    doc.set("derived", result.derived);
    return doc;
}

obs::Json
cacheVerbResponse(JobEngine &engine, const obs::Json &doc)
{
    const std::string cmd = doc.get("cmd").asString();
    try {
        if (!doc.has("key") || !doc.has("spec"))
            return errorResponseJson(
                "config", cmd + " needs \"key\" and \"spec\"");
        const JobSpec spec = JobSpec::fromJson(doc.get("spec"));
        const std::string key = doc.get("key").asString();
        if (spec.cacheKey() != key)
            return errorResponseJson(
                "config",
                detail::formatMessage(
                    "cache key ", key,
                    " does not match the spec's canonical form (",
                    spec.cacheKey(), ")"));

        obs::Json resp = obs::Json::object();
        resp.set("schema", "stitch-cache-response");
        resp.set("version", 1);
        resp.set("key", key);
        resp.set("stamp", cacheStamp());

        if (cmd == "cacheget") {
            auto hit = engine.cache().lookup(spec);
            if (hit) {
                resp.set("status", "hit");
                // The serving side's own canonicalization of the
                // requested spec: the client compares it byte-exact
                // against its local canonical form, so a schema skew
                // between shards degrades to a miss, never to a
                // wrong report.
                resp.set("spec_echo", spec.canonicalJson().dump());
                resp.set("report", hit->report);
                resp.set("derived", hit->derived);
            } else {
                resp.set("status", "miss");
            }
            return resp;
        }

        // cacheput: refuse entries minted under a different
        // job-schema/report/engine version — the stamp guard that
        // invalidates stale disk entries applies to remote pushes
        // before they are ever stored.
        if (!doc.has("stamp") ||
            doc.get("stamp").asString() != cacheStamp())
            return errorResponseJson(
                "mismatch",
                detail::formatMessage(
                    "cacheput stamp ",
                    doc.has("stamp")
                        ? doc.get("stamp").asString()
                        : std::string("(missing)"),
                    " does not match this shard's ", cacheStamp()));
        if (!doc.has("report") || !doc.has("derived"))
            return errorResponseJson(
                "config", "cacheput needs \"report\" and "
                          "\"derived\"");
        CacheEntry entry;
        entry.report = doc.get("report");
        entry.derived = doc.get("derived");
        engine.cache().store(spec, entry);
        resp.set("status", "ok");
        resp.set("stored", true);
        return resp;
    } catch (const fault::ConfigError &e) {
        return errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return errorResponseJson("internal", e.what());
    }
}

obs::Json
introspectionResponse(JobEngine &engine, const std::string &cmd,
                      double uptimeS, std::uint64_t served)
{
    auto stamp = [&](obs::Json &doc, const char *schema) {
        doc.set("schema", schema);
        doc.set("version", introspectionVersion);
        doc.set("uptime_s", uptimeS);
        doc.set("served", served);
    };

    if (cmd == "healthz") {
        // Liveness only: two values read under one engine lock, so a
        // tight poll costs the same however long the daemon has run.
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-healthz");
        doc.set("status", "ok");
        const obs::Json live = engine.livenessJson();
        for (const auto &[key, value] : live.items())
            doc.set(key, value);
        doc.set("build", obs::buildInfoJson());
        return doc;
    }
    if (cmd == "metrics") {
        obs::Json doc = engine.introspectionJson();
        stamp(doc, "stitchd-metrics");
        return doc;
    }
    if (cmd == "statz") {
        obs::Json doc = engine.introspectionJson();
        stamp(doc, "stitchd-statz");
        doc.set("service", engine.serviceReportJson());
        return doc;
    }
    if (cmd == "fleetz") {
        // The mergeable snapshot: a lossless MetricSample (bucket-
        // level histograms) plus the retained collector windows.
        // stitchrouter folds these across shards with the same
        // merge algebra the in-process telemetry uses.
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-fleetz");
        doc.set("build", obs::buildInfoJson());
        doc.set("sample", engine.metricsSnapshot().toWireJson());
        obs::Json windows = obs::Json::array();
        if (const telem::Collector *collector = engine.collector())
            for (const telem::Window &w :
                 collector->series().snapshot())
                windows.push(w.toWireJson());
        doc.set("windows", std::move(windows));
        return doc;
    }
    if (cmd == "scrape") {
        // Prometheus text exposition, carried in a JSON envelope so
        // the one wire format serves both humans and scrapers
        // (stitchtop --cmd=scrape unwraps it back to plain text).
        obs::Json doc = obs::Json::object();
        stamp(doc, "stitchd-scrape");
        doc.set("content_type", telem::expositionContentType);
        doc.set("exposition",
                engine.expositionText(uptimeS, served));
        return doc;
    }
    return errorResponseJson("config", "unknown cmd: " + cmd);
}

void
answerFrame(JobEngine &engine, const Frame &frame, double uptimeS,
            std::uint64_t served, const Reply &reply)
{
    int jobId = -1;
    const obs::Json response = frameResponse(
        frame,
        [&](const obs::Json &doc) {
            if (!doc.isObject() || !doc.has("cmd"))
                return handleRequest(engine, doc, &jobId);
            const std::string cmd = doc.get("cmd").asString();
            if (cmd == "cacheget" || cmd == "cacheput")
                return cacheVerbResponse(engine, doc);
            return introspectionResponse(engine, cmd, uptimeS, served);
        },
        // A framing violation never became a job, so no ring exists
        // for it; the engine dumps a synthetic kind="protocol" flight
        // record instead.
        [&](const std::string &message) {
            engine.recordProtocolFailure(message);
        });
    // Serialization + write-back is the respond stage; with telemetry
    // off traceContext() returns a null-sink context and this is a
    // no-op.
    telem::ScopedSpan span(engine.traceContext(jobId),
                           telem::Stage::Respond);
    reply(response);
}

Server::Server(JobEngine &engine, std::uint16_t port,
               ServerOptions options)
    : Server(FrameHandler([this, &engine](const Frame &frame,
                                          const Reply &reply) {
                 answerFrame(engine, frame, uptimeS(), served_, reply);
             }),
             port, options)
{
}

Server::Server(RequestHandler handler, std::uint16_t port,
               ServerOptions options)
    : Server(handler ? FrameHandler([handler = std::move(handler)](
                                        const Frame &frame,
                                        const Reply &reply) {
                           reply(frameResponse(
                               frame, handler,
                               [](const std::string &) {}));
                       })
                     : FrameHandler(),
             port, options)
{
}

Server::Server(FrameHandler handler, std::uint16_t port,
               ServerOptions options)
    : answer_(std::move(handler)), options_(options)
{
    if (!answer_)
        throw fault::ConfigError(
            "stitchd: Server needs a non-empty request handler");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw fault::ConfigError(detail::formatMessage(
            "stitchd: socket(): ", std::strerror(errno)));

    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 16) < 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd_);
        throw fault::ConfigError(detail::formatMessage(
            "stitchd: cannot listen on 127.0.0.1:", port, ": ",
            why));
    }

    socklen_t addrLen = sizeof addr;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &addrLen) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
}

Server::~Server()
{
    stop();
    ::close(listenFd_);
}

void
Server::stop()
{
    // shutdown() wakes a blocked accept() and refuses new
    // connections; the fd itself stays open until the destructor, so
    // serve() never races a close or a reassignment.
    if (!stopping_.exchange(true))
        ::shutdown(listenFd_, SHUT_RDWR);
}

void
Server::serve(int maxRequests)
{
    int served = 0;
    while (!stopping_.load() &&
           (maxRequests <= 0 || served < maxRequests)) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener shut down (stop()) or broken
        }
        ++served;
        ++served_;

        // A client that connects and stalls must not wedge the
        // single-threaded serve loop forever.
        if (options_.readTimeoutMs > 0)
            setTimeout(fd, SO_RCVTIMEO, options_.readTimeoutMs);

        // A framing violation gets a typed, best-effort reply: a peer
        // that already hung up just loses the write, which is fine —
        // nothing to answer a closed socket with.
        Frame frame;
        frame.violation = recvFrame(fd, frame.text,
                                    options_.maxFrameBytes,
                                    options_.readTimeoutMs);
        answer_(frame, [fd](const obs::Json &response) {
            if (!sendFrame(fd, response.dump(2) + "\n"))
                warn("stitchd: client hung up before the response");
        });
        ::close(fd);
    }
}

void
serveUntilSignalled(Server &server, const char *name,
                    const std::string &portFile, int maxRequests)
{
    gSignalled.store(&server);
    struct sigaction sa{};
    sa.sa_handler = onShutdownSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::printf("%s: listening on 127.0.0.1:%u\n", name,
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    if (!portFile.empty()) {
        std::FILE *f = obs::openArtifactFile(portFile);
        std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
        std::fclose(f);
    }
    server.serve(maxRequests);
    gSignalled.store(nullptr);
}

double
Server::uptimeS() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

obs::Json
requestReport(const std::string &host, std::uint16_t port,
              const obs::Json &jobDoc,
              const ServiceFaultInjector *chaos,
              std::uint64_t requestIndex, std::uint64_t timeoutMs)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw fault::ConfigError(detail::formatMessage(
            "stitchq: socket(): ", std::strerror(errno)));
    if (timeoutMs > 0) {
        // Bound both directions: a peer that accepted the connection
        // but never answers (a SIGKILLed-but-lingering shard, a
        // wedged daemon) must surface as a transport failure the
        // caller can fail over on, not a hang.
        setTimeout(fd, SO_RCVTIMEO, timeoutMs);
        setTimeout(fd, SO_SNDTIMEO, timeoutMs);
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "not an IPv4 address: ", host));
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "cannot connect to ", host, ":", port, ": ", why));
    }

    if (chaos && chaos->resetConnection(requestIndex)) {
        // Injected mid-frame disconnect: promise a 64-byte body,
        // deliver 10, hang up. The server must answer *itself* with
        // a typed protocol error — this side has nothing to read.
        std::uint32_t len = htonl(64);
        (void)writeAll(fd, &len, sizeof len);
        (void)writeAll(fd, "0123456789", 10);
        ::close(fd);
        throw fault::ConfigError(detail::formatMessage(
            "injected connection reset on request ", requestIndex));
    }

    const std::string body =
        chaos && chaos->malformFrame(requestIndex)
            ? std::string("\x7fnot json \x01\x02\x03 garbage")
            : jobDoc.dump();

    std::string payload;
    const bool ok =
        sendFrame(fd, body) &&
        recvFrame(fd, payload, maxRequestBytes, timeoutMs).empty();
    ::close(fd);
    if (!ok)
        throw fault::ConfigError(detail::formatMessage(
            "request to ", host, ":", port,
            " failed mid-frame"));
    return obs::Json::parse(payload);
}

obs::Json
requestReportWithRetry(const std::string &host, std::uint16_t port,
                       const obs::Json &jobDoc,
                       const RetryPolicy &policy,
                       std::uint64_t requestIndex,
                       const ServiceFaultInjector *chaos,
                       int *attemptsOut, std::uint64_t timeoutMs)
{
    policy.validate();
    for (int attempt = 1;; ++attempt) {
        if (attemptsOut)
            *attemptsOut = attempt;
        const bool lastAttempt = attempt >= policy.maxAttempts;
        // Fold the attempt into the chaos key: a transient injected
        // failure on attempt 1 must be a *fresh* draw on attempt 2,
        // or no retry could ever succeed.
        const std::uint64_t chaosKey =
            requestIndex ^
            (static_cast<std::uint64_t>(attempt - 1) << 32);
        try {
            obs::Json response = requestReport(
                host, port, jobDoc, chaos, chaosKey, timeoutMs);
            const bool overloaded =
                response.isObject() && response.has("error_kind") &&
                response.get("error_kind").kind() ==
                    obs::Json::Kind::String &&
                response.get("error_kind").asString() ==
                    "overloaded";
            if (!overloaded || lastAttempt)
                return response;
        } catch (const fault::ConfigError &) {
            // Transport-level failure (connect refused, mid-frame
            // loss, injected reset): retryable until the budget is
            // spent.
            if (lastAttempt)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(
            policy.delayUsAfter(requestIndex, attempt)));
    }
}

} // namespace stitch::svc
