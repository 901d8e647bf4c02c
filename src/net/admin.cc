#include "net/admin.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <sstream>

#include "telemetry/exposition.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::net
{

namespace
{

void
serveRequest(Fd &conn, AdminHandler handler)
{
    using Clock = std::chrono::steady_clock;
    // Bounded request read: admin clients are local tools, but a
    // slow, oversized or malformed request must not wedge the admin
    // thread (one request at a time is the whole concurrency model).
    std::string request;
    char buf[1024];
    const auto readDeadline =
        Clock::now() + std::chrono::milliseconds(250);
    while (request.find('\n') == std::string::npos &&
           request.size() < 4096 && Clock::now() < readDeadline) {
        pollfd pfd{conn.get(), POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0)
            continue;
        const ssize_t got = ::read(conn.get(), buf, sizeof(buf));
        if (got > 0) {
            request.append(buf, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0)
            break;
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            continue;
        return;
    }

    AdminReply reply{400, "text/plain; charset=utf-8", "bad request\n"};
    if (request.rfind("GET ", 0) == 0) {
        const std::size_t end = request.find_first_of(" \r\n", 4);
        if (end != std::string::npos && end > 4)
            reply = handler(request.substr(4, end - 4));
    }

    const char *reason = reply.status == 200  ? "OK"
                         : reply.status == 404 ? "Not Found"
                         : reply.status == 503 ? "Service Unavailable"
                                               : "Bad Request";
    std::ostringstream os;
    os << "HTTP/1.0 " << reply.status << ' ' << reason << "\r\n"
       << "Content-Type: " << reply.contentType << "\r\n"
       << "Content-Length: " << reply.body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << reply.body;
    const std::string response = os.str();

    std::size_t off = 0;
    const auto writeDeadline =
        Clock::now() + std::chrono::milliseconds(500);
    while (off < response.size() && Clock::now() < writeDeadline) {
        const ssize_t wrote = ::send(
            conn.get(), response.data() + off, response.size() - off,
            MSG_NOSIGNAL);
        if (wrote > 0) {
            off += static_cast<std::size_t>(wrote);
            continue;
        }
        if (wrote < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{conn.get(), POLLOUT, 0};
            ::poll(&pfd, 1, 50);
            continue;
        }
        if (wrote < 0 && errno == EINTR)
            continue;
        break;
    }
}

} // namespace

AdminReply
standardAdminReply(const std::string &path, bool draining)
{
    if (path == "/healthz") {
        if (draining)
            return {503, "text/plain; charset=utf-8", "draining\n"};
        return {200, "text/plain; charset=utf-8", "ok\n"};
    }
    if (path == "/metrics") {
        std::ostringstream os;
        if (telemetry::MetricRegistry *registry =
                telemetry::attachedRegistry())
            telemetry::writePrometheus(os, registry->snapshot());
        else
            os << "# telemetry registry not attached\n";
        return {200, "text/plain; version=0.0.4; charset=utf-8",
                os.str()};
    }
    return {};
}

void
serveAdmin(const Fd &listener, const std::atomic<bool> &stopping,
           std::uint64_t tick_ms, AdminHandler handler)
{
    // One request per connection, one connection at a time: the
    // admin plane serves a curl or engine_top poll every few hundred
    // milliseconds, not traffic.
    while (!stopping.load()) {
        pollfd pfd{listener.get(), POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(tick_ms));
        if (ready <= 0)
            continue;
        Fd conn(::accept4(listener.get(), nullptr, nullptr,
                          SOCK_NONBLOCK));
        if (!conn.valid())
            continue;
        serveRequest(conn, handler);
    }
}

} // namespace hotpath::net
