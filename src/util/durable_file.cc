#include "util/durable_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/logging.hh"

namespace srsim {
namespace durable {

namespace {

class RealSyscalls final : public Syscalls
{
  public:
    int
    open(const char *path, int flags, int mode) override
    {
        return ::open(path, flags, static_cast<mode_t>(mode));
    }
    int
    openDirectory(const char *path) override
    {
        return ::open(path, O_RDONLY | O_DIRECTORY);
    }
    long
    write(int fd, const void *buf, std::size_t n) override
    {
        return ::write(fd, buf, n);
    }
    int fsync(int fd) override { return ::fsync(fd); }
    int
    rename(const char *from, const char *to) override
    {
        return ::rename(from, to);
    }
    int close(int fd) override { return ::close(fd); }
};

Syscalls &
resolve(Syscalls *sys)
{
    return sys != nullptr ? *sys : realSyscalls();
}

/** Report the failed step with the current errno; @return false. */
bool
fail(std::string *err, const char *step, const std::string &path)
{
    const int e = errno;
    *err = std::string("cannot ") + step + " '" + path +
           "': " + std::strerror(e);
    return false;
}

/** Run `call` until it stops failing with EINTR. */
template <typename F>
auto
retryEintr(F call)
{
    for (;;) {
        const auto rc = call();
        if (!(rc < 0 && errno == EINTR))
            return rc;
    }
}

bool
closeFd(Syscalls &sys, int fd, const std::string &path,
        std::string *err)
{
    if (sys.close(fd) == 0 || errno == EINTR)
        return true;
    return fail(err, "close", path);
}

/** Write bytes[*off..], advancing *off past what reached the file. */
bool
writeAll(Syscalls &sys, int fd, const std::string &bytes,
         std::size_t *off, const std::string &path, std::string *err)
{
    while (*off < bytes.size()) {
        const long n = retryEintr([&] {
            return sys.write(fd, bytes.data() + *off,
                             bytes.size() - *off);
        });
        if (n < 0)
            return fail(err, "write", path);
        if (n == 0) { // no errno is set when nothing was written
            *err = "cannot write '" + path + "': no progress";
            return false;
        }
        *off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
fsyncFd(Syscalls &sys, int fd, const std::string &path,
        std::string *err)
{
    if (retryEintr([&] { return sys.fsync(fd); }) == 0)
        return true;
    return fail(err, "fsync", path);
}

/**
 * Close `fd` after the steps before it; `ok` says whether they
 * succeeded, and a failure keeps their error ahead of the close's.
 */
bool
finishFd(Syscalls &sys, int fd, const std::string &path, bool ok,
         std::string *err)
{
    std::string closeErr;
    if (closeFd(sys, fd, path, &closeErr))
        return ok;
    *err = ok ? closeErr : *err + "; " + closeErr;
    return false;
}

std::string
parentDir(const std::string &path)
{
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    return dir.empty() ? "." : dir;
}

} // namespace

Syscalls &
realSyscalls()
{
    static RealSyscalls real;
    return real;
}

AppendFile::~AppendFile()
{
    std::string err;
    if (!close(&err))
        warn(err);
}

bool
AppendFile::open(const std::string &path, Syscalls *sys,
                 std::string *err)
{
    if (!close(err))
        return false;
    sys_ = &resolve(sys);
    path_ = path;
    failed_ = false;
    fd_ = retryEintr([&] {
        return sys_->open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    });
    return fd_ >= 0 || fail(err, "open for append", path);
}

bool
AppendFile::appendAndSync(std::string &pending, std::string *err)
{
    if (failed_ || fd_ < 0) {
        *err = "'" + path_ + (failed_ ? "' failed an earlier fsync"
                                      : "' is not open");
        return false;
    }
    std::size_t off = 0;
    const bool written = writeAll(*sys_, fd_, pending, &off, path_, err);
    pending.erase(0, off);
    failed_ = written && !fsyncFd(*sys_, fd_, path_, err);
    return written && !failed_;
}

bool
AppendFile::close(std::string *err)
{
    const int fd = fd_;
    fd_ = -1;
    return fd < 0 || closeFd(*sys_, fd, path_, err);
}

bool
replaceFile(const std::string &path, const std::string &bytes,
            Syscalls *sysOpt, std::string *err)
{
    Syscalls &sys = resolve(sysOpt);
    const std::string tmp = path + ".tmp";
    const int fd = retryEintr([&] {
        return sys.open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
    });
    if (fd < 0)
        return fail(err, "create", tmp);
    std::size_t off = 0;
    const bool ok = writeAll(sys, fd, bytes, &off, tmp, err) &&
                    fsyncFd(sys, fd, tmp, err);
    if (!finishFd(sys, fd, tmp, ok, err))
        return false;
    if (retryEintr([&] {
            return sys.rename(tmp.c_str(), path.c_str());
        }) != 0)
        return fail(err, "rename into place", tmp);
    return syncDir(parentDir(path), &sys, err);
}

bool
syncDir(const std::string &dir, Syscalls *sysOpt, std::string *err)
{
    Syscalls &sys = resolve(sysOpt);
    const int fd =
        retryEintr([&] { return sys.openDirectory(dir.c_str()); });
    if (fd < 0)
        return fail(err, "open directory", dir);
    return finishFd(sys, fd, dir, fsyncFd(sys, fd, dir, err), err);
}

bool
retireFile(const std::string &from, const std::string &to,
           Syscalls *sysOpt, std::string *err)
{
    Syscalls &sys = resolve(sysOpt);
    if (retryEintr([&] {
            return sys.rename(from.c_str(), to.c_str());
        }) != 0)
        return fail(err, "rename", from);
    return syncDir(parentDir(to), &sys, err);
}

} // namespace durable
} // namespace srsim
