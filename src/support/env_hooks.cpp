#include "support/env_hooks.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

namespace islhls {

namespace {

std::string errno_text() { return std::strerror(errno); }

// Writes `data` to a freshly opened `fd` and closes it, fsyncing first
// when `flush` is set.
bool write_fd(int fd, const std::string& data, bool flush, std::string* error) {
    if (fd < 0) {
        if (error) *error = errno_text();
        return false;
    }
    std::size_t written = 0;
    while (written < data.size()) {
        const ::ssize_t n =
            ::write(fd, data.data() + written, data.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (error) *error = errno_text();
            ::close(fd);
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    // Flush before the caller renames over the final name: a record must
    // never become reachable before its bytes are durable, or a crash could
    // leave a valid-looking name with torn contents.
    if (flush && ::fsync(fd) != 0) {
        if (error) *error = errno_text();
        ::close(fd);
        return false;
    }
    if (::close(fd) != 0) {
        if (error) *error = errno_text();
        return false;
    }
    return true;
}

bool real_write_file(const std::string& path, const std::string& data,
                     std::string* error) {
    return write_fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644), data,
                    /*flush=*/true, error);
}

bool real_create_exclusive(const std::string& path, const std::string& data,
                           std::string* error) {
    // No fsync: the lock stamp needs no durability (see Env_hooks).
    return write_fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644), data,
                    /*flush=*/false, error);
}

bool real_process_alive(std::int64_t pid) {
    if (pid <= 0) return false;
    // EPERM means "exists but not ours" — alive for lock purposes.
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

bool real_rename_file(const std::string& from, const std::string& to,
                      std::string* error) {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
        if (error) *error = errno_text();
        return false;
    }
    return true;
}

Env_hooks::Read_result real_read_file(const std::string& path, std::string* out,
                                      std::string* error) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) return Env_hooks::Read_result::missing;
        if (error) *error = errno_text();
        return Env_hooks::Read_result::error;
    }
    out->clear();
    char buffer[1 << 16];
    for (;;) {
        const ::ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (error) *error = errno_text();
            ::close(fd);
            return Env_hooks::Read_result::error;
        }
        if (n == 0) break;
        out->append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return Env_hooks::Read_result::ok;
}

bool real_remove_file(const std::string& path) {
    return ::unlink(path.c_str()) == 0;
}

std::int64_t real_now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void real_sleep_ms(std::int64_t ms) {
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

const Env_hooks& real_env_hooks() {
    static const Env_hooks hooks = {
        real_write_file,       real_rename_file,   real_read_file,
        real_remove_file,      real_create_exclusive, real_process_alive,
        real_now_ms,           real_sleep_ms,
    };
    return hooks;
}

}  // namespace islhls
