/**
 * @file
 * The one path by which srsim makes a file durable.
 *
 * Crash model: after a crash a file holds its bytes only up to its
 * last successful fsync(2), and a create or rename inside a
 * directory survives only once that directory has been fsynced.
 * Every syscall goes through a Syscalls object — the real one unless
 * a test substitutes a fake to inject errors, or to record the
 * sequence and model what a crash at each call leaves. Every return
 * value is checked: a failure comes back as false plus a message
 * naming the step, the path and strerror(errno). EINTR is retried,
 * except from close(2), which Linux reports after releasing the fd.
 */

#ifndef SRSIM_UTIL_DURABLE_FILE_HH_
#define SRSIM_UTIL_DURABLE_FILE_HH_

#include <cstddef>
#include <string>

namespace srsim {
namespace durable {

/** The syscalls used; each returns what the POSIX call returns. */
class Syscalls
{
  public:
    virtual ~Syscalls() = default;
    virtual int open(const char *path, int flags, int mode) = 0;
    /** open(2) of a directory, read-only, for fsync. */
    virtual int openDirectory(const char *path) = 0;
    virtual long write(int fd, const void *buf, std::size_t n) = 0;
    virtual int fsync(int fd) = 0;
    virtual int rename(const char *from, const char *to) = 0;
    virtual int close(int fd) = 0;
};

/** The real syscalls, used wherever a Syscalls pointer is null. */
Syscalls &realSyscalls();

/** An append-only file made durable in explicit batches. */
class AppendFile
{
  public:
    AppendFile() = default;
    ~AppendFile();
    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    /** Open (creating if missing) `path` for appending. */
    bool open(const std::string &path, Syscalls *sys,
              std::string *err);
    bool isOpen() const { return fd_ >= 0; }
    /** A failed fsync is sticky until the next open(). */
    bool failed() const { return failed_; }

    /**
     * Write all of `pending`, then fsync. Bytes that reached the
     * file are erased from `pending` even when a later write fails,
     * so a retry continues where this call stopped. @return true iff
     * every byte is durable.
     */
    bool appendAndSync(std::string &pending, std::string *err);

    /** Close without syncing; the fd is released either way. */
    bool close(std::string *err);

  private:
    Syscalls *sys_ = nullptr;
    std::string path_;
    int fd_ = -1;
    bool failed_ = false;
};

/**
 * Atomic replace: write `path`.tmp in full, fsync and close it,
 * rename it over `path`, fsync the directory. On failure `path`
 * holds its old or its new bytes.
 */
bool replaceFile(const std::string &path, const std::string &bytes,
                 Syscalls *sys, std::string *err);

/** fsync directory `dir`, making creates and renames in it durable. */
bool syncDir(const std::string &dir, Syscalls *sys, std::string *err);

/** Retire `from` by renaming it to `to`, then fsync the directory. */
bool retireFile(const std::string &from, const std::string &to,
                Syscalls *sys, std::string *err);

} // namespace durable
} // namespace srsim

#endif // SRSIM_UTIL_DURABLE_FILE_HH_
