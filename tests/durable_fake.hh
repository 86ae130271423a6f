/**
 * @file
 * A durable::Syscalls for tests: passes every call through to the
 * real syscalls, records the sequence, can fail one chosen call with
 * a chosen errno, and models what a crash at any point of the
 * recorded sequence would leave on disk.
 *
 * The model is the crash model of util/durable_file.hh, in the
 * style of Pillai et al., "All File Systems Are Not Created Equal"
 * (OSDI'14): a file's contents count only up to its last fsync, and
 * a create or rename counts only after a later fsync of its
 * directory.
 */

#ifndef SRSIM_TESTS_DURABLE_FAKE_HH_
#define SRSIM_TESTS_DURABLE_FAKE_HH_

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/durable_file.hh"

namespace srsim {
namespace testing_durable {

/** One call the fake saw. */
struct SyscallEvent
{
    enum class Kind { Open, OpenDirectory, Write, Fsync, Rename, Close };
    Kind kind = Kind::Open;
    /** The file or directory the call acts on (rename: source). */
    std::string path;
    /** Rename target. */
    std::string to;
    /** Open flags. */
    int flags = 0;
    /** Bytes a write put into the file. */
    std::string data;
    /** The call failed (injected or real) and changed nothing. */
    bool failed = false;
};

inline const char *
kindName(SyscallEvent::Kind k)
{
    switch (k) {
      case SyscallEvent::Kind::Open: return "open";
      case SyscallEvent::Kind::OpenDirectory: return "opendir";
      case SyscallEvent::Kind::Write: return "write";
      case SyscallEvent::Kind::Fsync: return "fsync";
      case SyscallEvent::Kind::Rename: return "rename";
      case SyscallEvent::Kind::Close: return "close";
    }
    return "?";
}

/** Files of one directory image: file name -> bytes. */
using DirImage = std::map<std::string, std::string>;

class FakeSyscalls final : public durable::Syscalls
{
  public:
    /** Fail call number `index` (0-based) with `err`, once. */
    void
    failAt(std::size_t index, int err)
    {
        failIndex_ = index;
        failErrno_ = err;
    }

    /** True once the failAt() call has been made. */
    bool injected() const { return injected_; }

    const std::vector<SyscallEvent> &events() const { return events_; }

    int
    open(const char *path, int flags, int mode) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::Open, path);
        ev.flags = flags;
        if (inject(ev))
            return -1;
        const int fd = ::open(path, flags, static_cast<mode_t>(mode));
        return track(ev, fd, path);
    }

    int
    openDirectory(const char *path) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::OpenDirectory, path);
        if (inject(ev))
            return -1;
        return track(ev, ::open(path, O_RDONLY | O_DIRECTORY), path);
    }

    long
    write(int fd, const void *buf, std::size_t n) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::Write, fdPath(fd));
        if (inject(ev))
            return -1;
        const long w = ::write(fd, buf, n);
        if (w < 0)
            ev.failed = true;
        else
            ev.data.assign(static_cast<const char *>(buf),
                           static_cast<std::size_t>(w));
        return w;
    }

    int
    fsync(int fd) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::Fsync, fdPath(fd));
        if (inject(ev))
            return -1;
        return check(ev, ::fsync(fd));
    }

    int
    rename(const char *from, const char *to) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::Rename, from);
        ev.to = to;
        if (inject(ev))
            return -1;
        return check(ev, ::rename(from, to));
    }

    int
    close(int fd) override
    {
        SyscallEvent &ev = begin(SyscallEvent::Kind::Close, fdPath(fd));
        // The fd is released whatever close reports (Linux), so an
        // injected failure still closes it for real.
        fdPaths_.erase(fd);
        const int rc = ::close(fd);
        if (inject(ev))
            return -1;
        return check(ev, rc);
    }

    /**
     * The directory image a crash after the first `k` calls leaves,
     * by file name. With `tornFile` set, that file also keeps the
     * first half of the bytes written to it since its last fsync — a
     * torn tail.
     */
    DirImage
    crashImage(std::size_t k, const std::string &tornFile = {}) const
    {
        struct Inode
        {
            std::string data;
            std::string synced;
        };
        std::vector<Inode> inodes;
        std::map<std::string, std::size_t> names, durableNames;
        // Model fds, opened by path: a file's inode, or a directory.
        std::map<std::string, std::size_t> openFds;
        std::map<std::size_t, std::size_t> fdInode;
        std::set<std::size_t> dirFds;
        std::size_t nextFd = 0;
        for (std::size_t i = 0; i < k && i < events_.size(); ++i) {
            const SyscallEvent &ev = events_[i];
            if (ev.failed)
                continue;
            switch (ev.kind) {
              case SyscallEvent::Kind::Open: {
                  auto it = names.find(ev.path);
                  if (it == names.end()) {
                      inodes.push_back({});
                      it = names.emplace(ev.path, inodes.size() - 1)
                               .first;
                  } else if (ev.flags & O_TRUNC) {
                      inodes[it->second].data.clear();
                  }
                  fdInode[nextFd] = it->second;
                  openFds[ev.path] = nextFd++;
                  break;
              }
              case SyscallEvent::Kind::OpenDirectory:
                  dirFds.insert(nextFd);
                  openFds[ev.path] = nextFd++;
                  break;
              case SyscallEvent::Kind::Write:
                  inodes[fdInode.at(openFds.at(ev.path))].data +=
                      ev.data;
                  break;
              case SyscallEvent::Kind::Fsync: {
                  const std::size_t fd = openFds.at(ev.path);
                  if (dirFds.count(fd)) {
                      syncEntries(ev.path, names, durableNames);
                  } else {
                      Inode &ino = inodes[fdInode.at(fd)];
                      ino.synced = ino.data;
                  }
                  break;
              }
              case SyscallEvent::Kind::Rename: {
                  const std::size_t ino = names.at(ev.path);
                  names.erase(ev.path);
                  names[ev.to] = ino;
                  break;
              }
              case SyscallEvent::Kind::Close:
                  openFds.erase(ev.path);
                  break;
            }
        }
        DirImage image;
        for (const auto &[path, ino] : durableNames) {
            const std::string name =
                std::filesystem::path(path).filename().string();
            std::string bytes = inodes[ino].synced;
            const std::string &data = inodes[ino].data;
            if (name == tornFile && data.size() > bytes.size() &&
                data.compare(0, bytes.size(), bytes) == 0)
                bytes += data.substr(bytes.size(),
                                     (data.size() - bytes.size()) / 2);
            image[name] = std::move(bytes);
        }
        return image;
    }

  private:
    SyscallEvent &
    begin(SyscallEvent::Kind kind, std::string path)
    {
        SyscallEvent ev;
        ev.kind = kind;
        ev.path = std::move(path);
        events_.push_back(std::move(ev));
        return events_.back();
    }

    bool
    inject(SyscallEvent &ev)
    {
        if (events_.size() - 1 != failIndex_ || injected_)
            return false;
        injected_ = true;
        ev.failed = true;
        errno = failErrno_;
        return true;
    }

    int
    check(SyscallEvent &ev, int rc)
    {
        if (rc != 0)
            ev.failed = true;
        return rc;
    }

    int
    track(SyscallEvent &ev, int fd, const char *path)
    {
        if (fd < 0)
            ev.failed = true;
        else
            fdPaths_[fd] = path;
        return fd;
    }

    std::string
    fdPath(int fd) const
    {
        const auto it = fdPaths_.find(fd);
        return it == fdPaths_.end() ? std::string() : it->second;
    }

    /** Make every entry of directory `dir` durable as it is now. */
    static void
    syncEntries(const std::string &dir,
                  const std::map<std::string, std::size_t> &names,
                  std::map<std::string, std::size_t> &durableNames)
    {
        const auto inDir = [&](const std::string &p) {
            return std::filesystem::path(p).parent_path() ==
                   std::filesystem::path(dir);
        };
        for (auto it = durableNames.begin();
             it != durableNames.end();) {
            if (inDir(it->first) && !names.count(it->first))
                it = durableNames.erase(it);
            else
                ++it;
        }
        for (const auto &[path, ino] : names)
            if (inDir(path))
                durableNames[path] = ino;
    }

    std::vector<SyscallEvent> events_;
    std::map<int, std::string> fdPaths_;
    std::size_t failIndex_ = static_cast<std::size_t>(-1);
    int failErrno_ = 0;
    bool injected_ = false;
};

/** Bytes of every regular file in `dir`, by file name. */
inline DirImage
readDirImage(const std::string &dir)
{
    DirImage image;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::FILE *f = std::fopen(entry.path().c_str(), "rb");
        std::string bytes;
        char buf[4096];
        std::size_t n;
        while (f && (n = std::fread(buf, 1, sizeof buf, f)) > 0)
            bytes.append(buf, n);
        if (f)
            std::fclose(f);
        image[entry.path().filename().string()] = std::move(bytes);
    }
    return image;
}

/** Replace `dir` by a directory holding exactly `image`. */
inline void
writeDirImage(const std::string &dir, const DirImage &image)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto &[name, bytes] : image) {
        std::FILE *f = std::fopen((dir + "/" + name).c_str(), "wb");
        if (f) {
            std::fwrite(bytes.data(), 1, bytes.size(), f);
            std::fclose(f);
        }
    }
}

} // namespace testing_durable
} // namespace srsim

#endif // SRSIM_TESTS_DURABLE_FAKE_HH_
