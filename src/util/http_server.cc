#include "util/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace cpullm {

namespace {

/** Largest request head we accept (we only route on the GET line). */
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

const char*
statusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      default:
        return "Error";
    }
}

void
sendAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off,
                   MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

std::string
serialize(const HttpResponse& r)
{
    std::ostringstream os;
    os << "HTTP/1.1 " << r.status << ' ' << statusText(r.status)
       << "\r\nContent-Type: " << r.contentType
       << "\r\nContent-Length: " << r.body.size()
       << "\r\nConnection: close\r\n\r\n"
       << r.body;
    return os.str();
}

} // namespace

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::route(const std::string& path, Handler handler)
{
    CPULLM_ASSERT(!running_.load(),
                  "routes must be registered before start()");
    routes_[path] = std::move(handler);
}

bool
HttpServer::start(int port, int threads)
{
    CPULLM_ASSERT(!running_.load(), "server already started");
    CPULLM_ASSERT(threads >= 1, "need at least one worker");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        warn("http: socket() failed: ", std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        warn("http: cannot bind 127.0.0.1:", port, ": ",
             std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    {
        // Clear the flag under the queue lock: a worker that has just
        // found its wait predicate false must be waiting before the
        // notify below, or the wakeup is lost and join() hangs.
        std::lock_guard<std::mutex> lock(queueMu_);
        if (!running_.exchange(false))
            return;
    }
    // Unblock the accept loop, then the workers. The accept loop
    // reads listenFd_, so close it only once that thread is joined.
    ::shutdown(listenFd_, SHUT_RDWR);
    queueCv_.notify_all();
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    for (auto& w : workers_) {
        if (w.joinable())
            w.join();
    }
    workers_.clear();
    // Close connections accepted but never served.
    std::lock_guard<std::mutex> lock(queueMu_);
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
}

void
HttpServer::acceptLoop()
{
    while (running_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (running_.load() && errno == EINTR)
                continue;
            break; // stop() closed the listen socket
        }
        {
            std::lock_guard<std::mutex> lock(queueMu_);
            pending_.push_back(fd);
        }
        queueCv_.notify_one();
    }
}

void
HttpServer::workerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMu_);
            queueCv_.wait(lock, [this] {
                return !pending_.empty() || !running_.load();
            });
            if (pending_.empty())
                return; // shutting down
            fd = pending_.back();
            pending_.pop_back();
        }
        handleConnection(fd);
        ::close(fd);
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Read until the end of the request head (or limits hit).
    std::string req;
    char buf[2048];
    while (req.size() < kMaxRequestBytes &&
           req.find("\r\n\r\n") == std::string::npos) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 2000) <= 0)
            break;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        req.append(buf, static_cast<std::size_t>(n));
    }

    const std::size_t eol = req.find("\r\n");
    if (eol == std::string::npos) {
        sendAll(fd, serialize({400, "text/plain; charset=utf-8",
                               "bad request\n"}));
        return;
    }
    const std::vector<std::string> parts =
        split(req.substr(0, eol), ' ');
    if (parts.size() != 3) {
        sendAll(fd, serialize({400, "text/plain; charset=utf-8",
                               "bad request\n"}));
        return;
    }
    if (parts[0] != "GET") {
        sendAll(fd, serialize({405, "text/plain; charset=utf-8",
                               "GET only\n"}));
        return;
    }
    std::string path = parts[1];
    const std::size_t query = path.find('?');
    if (query != std::string::npos)
        path.resize(query);

    const auto it = routes_.find(path);
    if (it == routes_.end()) {
        // Built-in liveness endpoint: answers as soon as the socket
        // machinery is up, independent of what the application
        // routed. An explicit route("/healthz", ...) overrides it.
        if (path == "/healthz") {
            sendAll(fd, serialize({200, "text/plain; charset=utf-8",
                                   "ok\n"}));
            return;
        }
        sendAll(fd, serialize({404, "text/plain; charset=utf-8",
                               "not found\n"}));
        return;
    }
    sendAll(fd, serialize(it->second()));
}

std::string
httpGet(const std::string& host, int port, const std::string& path,
        int* status, int timeout_ms)
{
    if (status)
        *status = 0;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return "";
    }
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }

    sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: " + host +
                    "\r\nConnection: close\r\n\r\n");

    std::string resp;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // Parse "HTTP/1.1 NNN ..." + headers; body follows the blank line.
    if (!startsWith(resp, "HTTP/"))
        return "";
    const std::size_t sp = resp.find(' ');
    if (status && sp != std::string::npos)
        *status = std::atoi(resp.c_str() + sp + 1);
    const std::size_t body = resp.find("\r\n\r\n");
    return body == std::string::npos ? "" : resp.substr(body + 4);
}

} // namespace cpullm
