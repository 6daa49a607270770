#include "src/storage/snapshot_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/storage/checksum.h"
#include "src/storage/internal.h"

namespace wdpt::storage {

namespace {

constexpr char kMagic[8] = {'W', 'D', 'P', 'T', 'S', 'N', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 40;

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::ParseError("snapshot file " + path + " rejected: " + why);
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Bounds-checked little-endian cursor over an untrusted byte range.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : p_(data), end_(data + size) {}

  bool ReadU32(uint32_t* v) {
    if (end_ - p_ < 4) return false;
    std::memcpy(v, p_, 4);
    p_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (end_ - p_ < 8) return false;
    std::memcpy(v, p_, 8);
    p_ += 8;
    return true;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    return true;
  }

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const char* p_;
  const char* end_;
};

Status ParseBody(const char* body, size_t body_size, uint32_t relation_count,
                 uint64_t constant_count, const std::string& path,
                 RdfContext* ctx, Database* db, SnapshotFileInfo* info) {
  Cursor cur(body, body_size);
  // Symbol table: intern in file order. On a fresh context the dense ids
  // come back identical to the written ones, but the id map below keeps
  // the reader correct even if the context pre-interned something.
  std::vector<ConstantId> id_map;
  id_map.reserve(constant_count);
  for (uint64_t i = 0; i < constant_count; ++i) {
    uint32_t len = 0;
    std::string_view name;
    if (!cur.ReadU32(&len) || !cur.ReadBytes(len, &name)) {
      return Corrupt(path, "truncated symbol table");
    }
    id_map.push_back(ctx->vocab().ConstantIdOf(name));
  }

  uint64_t facts = 0;
  for (uint32_t r = 0; r < relation_count; ++r) {
    uint32_t name_len = 0;
    std::string_view name;
    uint32_t arity = 0;
    uint64_t rows = 0;
    if (!cur.ReadU32(&name_len) || !cur.ReadBytes(name_len, &name) ||
        !cur.ReadU32(&arity) || !cur.ReadU64(&rows)) {
      return Corrupt(path, "truncated relation block header");
    }
    if (arity == 0) return Corrupt(path, "relation with arity 0");
    Result<RelationId> rel = ctx->schema().AddRelation(name, arity);
    if (!rel.ok()) {
      return Corrupt(path, "relation '" + std::string(name) + "': " +
                               rel.status().ToString());
    }
    if (rows > cur.remaining() / (4 * arity)) {
      return Corrupt(path, "relation '" + std::string(name) +
                               "' declares more rows than the file holds");
    }
    // Column blocks: columns[c] starts at offset c * rows * 4.
    std::string_view block;
    WDPT_CHECK(cur.ReadBytes(static_cast<size_t>(rows) * arity * 4, &block));
    db->Reserve(*rel, rows);
    std::vector<ConstantId> tuple(arity);
    for (uint64_t row = 0; row < rows; ++row) {
      for (uint32_t col = 0; col < arity; ++col) {
        uint32_t raw;
        std::memcpy(&raw, block.data() + (col * rows + row) * 4, 4);
        if (raw >= id_map.size()) {
          return Corrupt(path, "constant id " + std::to_string(raw) +
                                   " out of range");
        }
        tuple[col] = id_map[raw];
      }
      Status added = db->AddFact(*rel, tuple);
      if (!added.ok()) return added;
      ++facts;
    }
  }
  if (cur.remaining() != 0) {
    return Corrupt(path, std::to_string(cur.remaining()) +
                             " trailing bytes after the last relation");
  }
  if (info != nullptr) {
    info->constants = constant_count;
    info->facts = facts;
  }
  return Status::Ok();
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const RdfContext& ctx,
                         const Database& db, SnapshotFileInfo* info) {
  const Vocabulary& vocab = ctx.vocab();
  const Schema& schema = ctx.schema();

  std::string body;
  uint64_t facts = 0;
  for (ConstantId id = 0; id < vocab.num_constants(); ++id) {
    const std::string& name = vocab.ConstantName(id);
    AppendU32(&body, static_cast<uint32_t>(name.size()));
    body.append(name);
  }
  for (RelationId id = 0; id < schema.num_relations(); ++id) {
    const std::string& name = schema.Name(id);
    uint32_t arity = schema.Arity(id);
    const Relation& rel = db.relation(id);
    AppendU32(&body, static_cast<uint32_t>(name.size()));
    body.append(name);
    AppendU32(&body, arity);
    AppendU64(&body, rel.size());
    for (uint32_t col = 0; col < arity; ++col) {
      for (size_t row = 0; row < rel.size(); ++row) {
        AppendU32(&body, rel.Tuple(row)[col]);
      }
    }
    facts += rel.size();
  }

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof(kMagic));
  AppendU32(&header, kFormatVersion);
  AppendU32(&header, static_cast<uint32_t>(schema.num_relations()));
  AppendU64(&header, vocab.num_constants());
  AppendU64(&header, body.size());
  AppendU64(&header, Checksum64(body));
  WDPT_CHECK(header.size() == kHeaderBytes);

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);
  Status written = WriteAll(fd, header.data(), header.size(), path);
  if (written.ok()) written = WriteAll(fd, body.data(), body.size(), path);
  if (written.ok() && ::fsync(fd) != 0) written = Errno("fsync", path);
  ::close(fd);
  if (!written.ok()) return written;

  if (info != nullptr) {
    info->constants = vocab.num_constants();
    info->facts = facts;
    info->file_bytes = header.size() + body.size();
  }
  return Status::Ok();
}

Status ReadSnapshotFile(const std::string& path, RdfContext* ctx,
                        Database* db, SnapshotFileInfo* info) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot file not found: " + path);
    }
    return Errno("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("fstat", path);
    ::close(fd);
    return s;
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Corrupt(path, "file smaller than the 40-byte header");
  }

  // mmap keeps the load zero-copy (column blocks are parsed in place);
  // a plain read is the fallback for filesystems without mmap support.
  const char* base = nullptr;
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  std::string fallback;
  if (map != MAP_FAILED) {
    base = static_cast<const char*>(map);
  } else {
    fallback.resize(size);
    size_t off = 0;
    while (off < size) {
      ssize_t n = ::read(fd, fallback.data() + off, size - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return Errno("read", path);
      }
      off += static_cast<size_t>(n);
    }
    base = fallback.data();
  }

  Status parsed = ParseSnapshotBytes(base, size, path, ctx, db, info);

  if (map != MAP_FAILED) ::munmap(map, size);
  ::close(fd);
  return parsed;
}

Status ParseSnapshotBytes(const char* data, size_t size,
                          const std::string& label, RdfContext* ctx,
                          Database* db, SnapshotFileInfo* info) {
  if (size < kHeaderBytes) {
    return Corrupt(label, "image smaller than the 40-byte header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(label, "bad magic (not a WDPT snapshot file)");
  }
  Cursor header(data + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  uint32_t format = 0, relation_count = 0;
  uint64_t constant_count = 0, body_bytes = 0, body_checksum = 0;
  WDPT_CHECK(header.ReadU32(&format) && header.ReadU32(&relation_count) &&
             header.ReadU64(&constant_count) && header.ReadU64(&body_bytes) &&
             header.ReadU64(&body_checksum));
  if (format != kFormatVersion) {
    return Corrupt(label,
                   "unsupported format version " + std::to_string(format));
  }
  if (body_bytes != size - kHeaderBytes) {
    return Corrupt(label, "declared body of " + std::to_string(body_bytes) +
                              " bytes but the image holds " +
                              std::to_string(size - kHeaderBytes));
  }
  uint64_t actual = Checksum64(data + kHeaderBytes, body_bytes);
  if (actual != body_checksum) {
    return Corrupt(label, "body checksum mismatch (stored " +
                              std::to_string(body_checksum) + ", computed " +
                              std::to_string(actual) + ")");
  }
  Status parsed = ParseBody(data + kHeaderBytes, body_bytes, relation_count,
                            constant_count, label, ctx, db, info);
  if (parsed.ok() && info != nullptr) info->file_bytes = size;
  return parsed;
}

}  // namespace wdpt::storage
