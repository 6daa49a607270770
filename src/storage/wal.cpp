#include "src/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/server/fault.h"
#include "src/storage/checksum.h"
#include "src/storage/internal.h"

namespace wdpt::storage {

namespace {

constexpr size_t kEntryHeaderBytes = 12;  // u32 length + u64 checksum.
// Upper bound on one entry's payload: rejects lengths that garbage
// bytes would otherwise announce, without constraining real batches.
constexpr uint32_t kMaxEntryBytes = 256u << 20;

void AppendStr(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

std::string EncodePayload(const std::vector<TripleOp>& ops) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(ops.size()));
  for (const TripleOp& op : ops) {
    payload.push_back(static_cast<char>(op.kind));
    AppendStr(&payload, op.s);
    AppendStr(&payload, op.p);
    AppendStr(&payload, op.o);
  }
  return payload;
}

// Decodes one checksum-verified payload. Returns false on any bounds or
// tag violation — the caller treats that the same as a bad checksum.
bool DecodePayload(std::string_view payload, std::vector<TripleOp>* ops) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  auto read_u32 = [&](uint32_t* v) {
    if (end - p < 4) return false;
    std::memcpy(v, p, 4);
    p += 4;
    return true;
  };
  auto read_str = [&](std::string* s) {
    uint32_t len = 0;
    if (!read_u32(&len) || static_cast<size_t>(end - p) < len) return false;
    s->assign(p, len);
    p += len;
    return true;
  };
  uint32_t count = 0;
  if (!read_u32(&count)) return false;
  ops->clear();
  ops->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (p >= end) return false;
    uint8_t kind = static_cast<uint8_t>(*p++);
    if (kind != static_cast<uint8_t>(TripleOpKind::kAdd) &&
        kind != static_cast<uint8_t>(TripleOpKind::kRemove)) {
      return false;
    }
    TripleOp op;
    op.kind = static_cast<TripleOpKind>(kind);
    if (!read_str(&op.s) || !read_str(&op.p) || !read_str(&op.o)) return false;
    ops->push_back(std::move(op));
  }
  return p == end;
}

}  // namespace

Result<std::vector<TripleOp>> ParseIngestBody(std::string_view body) {
  std::vector<TripleOp> ops;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    std::vector<std::string_view> tokens;
    size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                                 line[i] == '\r')) {
        ++i;
      }
      if (i >= line.size() || line[i] == '#') break;
      size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
             line[i] != '\r') {
        ++i;
      }
      tokens.push_back(line.substr(start, i - start));
    }
    if (tokens.empty()) {
      if (pos > body.size()) break;
      continue;
    }
    TripleOp op;
    if (tokens[0] == "add") {
      op.kind = TripleOpKind::kAdd;
    } else if (tokens[0] == "remove") {
      op.kind = TripleOpKind::kRemove;
    } else {
      return Status::InvalidArgument(
          "ingest line " + std::to_string(line_no) +
          ": expected 'add' or 'remove', got '" + std::string(tokens[0]) +
          "'");
    }
    if (tokens.size() != 4) {
      return Status::InvalidArgument(
          "ingest line " + std::to_string(line_no) + ": expected '" +
          std::string(tokens[0]) + " <s> <p> <o>', got " +
          std::to_string(tokens.size() - 1) + " argument(s)");
    }
    op.s = std::string(tokens[1]);
    op.p = std::string(tokens[2]);
    op.o = std::string(tokens[3]);
    ops.push_back(std::move(op));
    if (pos > body.size()) break;
  }
  if (ops.empty()) {
    return Status::InvalidArgument("ingest body holds no add/remove lines");
  }
  return ops;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   bool fsync_on_append) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    Status s = Errno("lseek", path);
    ::close(fd);
    return s;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, fsync_on_append, static_cast<uint64_t>(size)));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const std::vector<TripleOp>& ops,
                         uint64_t* entry_bytes) {
  if (ops.empty()) return Status::InvalidArgument("empty WAL batch");
  if (poisoned_) {
    // A previous append failed partway, so the file may end in a torn
    // entry. Appending after it would produce an acked entry that
    // replay never reaches (recovery stops at the first bad frame);
    // refuse until the log is reopened through recovery.
    return Status::Internal(
        "WAL poisoned by an earlier failed append; reopen through "
        "recovery before writing");
  }
  std::string payload = EncodePayload(ops);
  std::string entry;
  entry.reserve(kEntryHeaderBytes + payload.size());
  AppendU32(&entry, static_cast<uint32_t>(payload.size()));
  AppendU64(&entry, Checksum64(payload));
  entry.append(payload);
  if (server::fault::Injector* injector = server::fault::Get()) {
    server::fault::Decision d = injector->Next(server::fault::Op::kWalWrite);
    if (d.fail) {
      // Model a crash mid-append: leave a torn half-entry on disk so
      // recovery has a tail to find and truncate, then fail the op.
      size_t torn = entry.size() / 2;
      size_t woff = 0;
      while (woff < torn) {
        ssize_t n = ::write(fd_, entry.data() + woff, torn - woff);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        woff += static_cast<size_t>(n);
      }
      poisoned_ = true;
      return Status::Internal("injected WAL write failure (torn entry)");
    }
  }
  size_t off = 0;
  while (off < entry.size()) {
    ssize_t n = ::write(fd_, entry.data() + off, entry.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      poisoned_ = true;
      return Errno("append to WAL", "");
    }
    off += static_cast<size_t>(n);
  }
  if (server::fault::Injector* injector = server::fault::Get()) {
    server::fault::Decision d = injector->Next(server::fault::Op::kWalSync);
    if (d.fail) {
      // The entry is fully written but not durable; treat it like a
      // failed fdatasync (the ack must not go out).
      poisoned_ = true;
      return Status::Internal("injected WAL fsync failure");
    }
  }
  if (fsync_on_append_ && ::fdatasync(fd_) != 0) {
    poisoned_ = true;
    return Errno("fdatasync WAL", "");
  }
  bytes_ += entry.size();
  if (entry_bytes != nullptr) *entry_bytes = entry.size();
  return Status::Ok();
}

Status WalWriter::Reset() {
  if (::ftruncate(fd_, 0) != 0) return Errno("truncate WAL", "");
  if (::fsync(fd_) != 0) return Errno("fsync WAL", "");
  bytes_ = 0;
  // Truncation removed any torn tail, so appending is safe again.
  poisoned_ = false;
  return Status::Ok();
}

Result<WalRecovery> ReplayWal(
    const std::string& path,
    const std::function<void(const std::vector<TripleOp>&)>& apply) {
  return ReplayWalWithOffsets(
      path, [&apply](const std::vector<TripleOp>& ops, uint64_t, uint64_t) {
        apply(ops);
      });
}

Result<WalRecovery> ReplayWalWithOffsets(
    const std::string& path,
    const std::function<void(const std::vector<TripleOp>&, uint64_t offset,
                             uint64_t next_offset)>& apply) {
  WalRecovery recovery;
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return recovery;  // No log yet: empty.
    return Errno("open", path);
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    Status s = Errno("lseek", path);
    ::close(fd);
    return s;
  }
  std::string log;
  log.resize(static_cast<size_t>(end));
  size_t off = 0;
  if (::lseek(fd, 0, SEEK_SET) < 0) {
    Status s = Errno("lseek", path);
    ::close(fd);
    return s;
  }
  while (off < log.size()) {
    ssize_t n = ::read(fd, log.data() + off, log.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Errno("read", path);
    }
    off += static_cast<size_t>(n);
  }

  size_t pos = 0;
  std::vector<TripleOp> ops;
  while (pos + kEntryHeaderBytes <= log.size()) {
    uint32_t len = 0;
    uint64_t stored = 0;
    std::memcpy(&len, log.data() + pos, 4);
    std::memcpy(&stored, log.data() + pos + 4, 8);
    if (len > kMaxEntryBytes ||
        pos + kEntryHeaderBytes + len > log.size()) {
      break;  // Torn tail: a frame the crash cut short.
    }
    std::string_view payload(log.data() + pos + kEntryHeaderBytes, len);
    if (Checksum64(payload) != stored || !DecodePayload(payload, &ops)) {
      break;  // Corrupt tail entry: same treatment.
    }
    apply(ops, pos, pos + kEntryHeaderBytes + len);
    ++recovery.entries;
    recovery.ops += ops.size();
    pos += kEntryHeaderBytes + len;
  }
  recovery.valid_bytes = pos;
  recovery.truncated_bytes = log.size() - pos;
  if (recovery.truncated_bytes != 0) {
    if (::ftruncate(fd, static_cast<off_t>(pos)) != 0 || ::fsync(fd) != 0) {
      Status s = Errno("truncate torn WAL tail of", path);
      ::close(fd);
      return s;
    }
  }
  ::close(fd);
  return recovery;
}

}  // namespace wdpt::storage
