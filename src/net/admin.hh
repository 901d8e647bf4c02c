/**
 * @file
 * The admin (introspection) HTTP plane shared by net::Server and
 * cluster::Router: plain HTTP/1.0 GETs on a separate listener, one
 * request per connection, one connection at a time. The owner
 * supplies only a path -> reply handler; the bounded request read,
 * the GET parse and the bounded response write live here once.
 */

#ifndef HOTPATH_NET_ADMIN_HH
#define HOTPATH_NET_ADMIN_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "net/socket.hh"
#include "support/function_ref.hh"

namespace hotpath::net
{

/** Content type of JSON admin documents (/stats, /topology). */
inline constexpr const char *kAdminJson = "application/json";

/** One admin response; the default is the 404 reply. */
struct AdminReply
{
    /** HTTP status: 200, 404 or 503 (400 is the parser's own). */
    int status = 404;
    /** Content-Type header value. */
    const char *contentType = "text/plain; charset=utf-8";
    /** Response body. */
    std::string body = "not found\n";
};

/** Answers one GET path. */
using AdminHandler = support::FunctionRef<AdminReply(const std::string &)>;

/**
 * The replies every admin plane shares: /healthz (200 "ok", or 503
 * "draining" while `draining`), /metrics (Prometheus text of the
 * attached telemetry registry) and 404 for any other path.
 */
AdminReply standardAdminReply(const std::string &path, bool draining);

/**
 * Serve admin requests on `listener` until `stopping` is set, polling
 * for connections every `tick_ms`. Each request read is bounded
 * (4 KiB, 250 ms) and each response write too (500 ms), so a slow,
 * oversized or malformed client cannot wedge the thread; a request
 * that is not a well-formed GET is answered 400. Keeps serving while
 * its owner drains - /healthz flipping to 503 is the point.
 */
void serveAdmin(const Fd &listener, const std::atomic<bool> &stopping,
                std::uint64_t tick_ms, AdminHandler handler);

} // namespace hotpath::net

#endif // HOTPATH_NET_ADMIN_HH
