#include "src/storage/run_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/recovery/fs_util.h"

namespace ssidb {

namespace {

constexpr char kRunMagic[] = "SSIDBRUN";
constexpr char kIndexMagic[] = "SSIDBRIX";
constexpr char kEndMagic[] = "SSIDBEND";
constexpr size_t kMagicLen = 8;
constexpr size_t kTrailerLen = 8 + kMagicLen;  // u64 footer_offset + magic.
/// Data-page header: u32 crc, u32 payload_bytes, u32 entry_count.
constexpr uint32_t kPageHeaderLen = 12;

Status PreadFull(io::Env* env, int fd, void* buf, size_t n, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r =
        env->Pread(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread run: ") + strerror(errno));
    }
    if (r == 0) return Status::Corruption("run file truncated");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PwriteFull(io::Env* env, int fd, const void* buf, size_t n,
                  uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r =
        env->Pwrite(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite run: ") + strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

uint64_t EntryEncodedBytes(const RunEntryView& e) {
  return 4 + e.key.size() + 8 + 1 + 4 + e.value.size();
}

void EncodeEntry(std::string* dst, const RunEntryView& e) {
  PutLengthPrefixed(dst, e.key);
  PutBig64(dst, e.commit_ts);
  dst->push_back(e.tombstone ? 1 : 0);
  PutLengthPrefixed(dst, e.value);
}

/// Decode one entry in place: e's slices point into `page`.
bool DecodeEntry(Slice page, size_t* offset, RunEntryView* e) {
  if (!GetLengthPrefixed(page, offset, &e->key)) return false;
  if (!GetBig64(page, offset, &e->commit_ts)) return false;
  if (*offset >= page.size()) return false;
  e->tombstone = page[*offset] != 0;
  ++*offset;
  return GetLengthPrefixed(page, offset, &e->value);
}

void StoreBig32(char* dst, uint32_t v) {
  std::string be;
  PutBig32(&be, v);
  memcpy(dst, be.data(), 4);
}

/// Validate a data page's header and CRC. On success *body spans the
/// header and payload (entries start at kPageHeaderLen) and *entry_count
/// is the page's entry count.
Status ParsePage(const char* page, uint32_t page_bytes, Slice* body,
                 uint32_t* entry_count) {
  const Slice raw(page, page_bytes);
  size_t off = 0;
  uint32_t stored_crc = 0, payload_bytes = 0, count = 0;
  if (!GetBig32(raw, &off, &stored_crc) ||
      !GetBig32(raw, &off, &payload_bytes) || !GetBig32(raw, &off, &count) ||
      payload_bytes > page_bytes - kPageHeaderLen) {
    return Status::Corruption("run page header damaged");
  }
  if (Crc32c(0, page + 4, 8 + payload_bytes) != stored_crc) {
    return Status::Corruption("run page crc mismatch");
  }
  *body = Slice(page, kPageHeaderLen + payload_bytes);
  *entry_count = count;
  return Status::OK();
}

}  // namespace

uint64_t RunFile::MaxEntryBytes(uint32_t page_bytes) {
  return page_bytes > kPageHeaderLen ? page_bytes - kPageHeaderLen : 0;
}

RunFile::RunFile(std::string path, std::shared_ptr<PoolFile> file,
                 uint32_t table_id, uint64_t seq, uint32_t page_bytes,
                 uint32_t page_count, uint64_t entry_count,
                 std::vector<std::string> fences, BufferPool* pool,
                 io::Env* env)
    : path_(std::move(path)),
      file_(std::move(file)),
      table_id_(table_id),
      seq_(seq),
      page_bytes_(page_bytes),
      page_count_(page_count),
      entry_count_(entry_count),
      fences_(std::move(fences)),
      pool_(pool),
      env_(env) {}

RunFile::~RunFile() { pool_->Purge(file_->id()); }

Status RunFile::Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const RunEntrySource& source, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env) {
  env = io::ResolveEnv(env);
  assert(pool->page_bytes() == page_bytes);
  const std::string tmp = path + ".tmp";
  const int fd = env->Open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return recovery::ErrnoStatus("open", tmp);
  auto file = std::make_shared<PoolFile>(file_id, fd, env);
  pool->RegisterFile(file);

  // Header page.
  std::string header;
  header.append(kRunMagic, kMagicLen);
  PutBig32(&header, table_id);
  PutBig32(&header, page_bytes);
  PutBig64(&header, seq);
  header.resize(page_bytes, '\0');
  Status st = PwriteFull(env, fd, header.data(), header.size(), 0);

  // Data pages, through the pool: fill `page` (header slot + payload) from
  // the source, frame it with its CRC, and hand the bytes to a dirty
  // frame. FlushFile below performs the actual pwrites (the pool's
  // writeback path — also exercised early by clock evictions when the pool
  // is smaller than the run).
  std::vector<std::string> fences;
  std::string page(kPageHeaderLen, '\0');
  page.reserve(page_bytes);
  uint32_t entries_in_page = 0;
  uint64_t entry_count = 0;
  uint32_t page_no = 0;  // Data page index; file page is page_no + 1.
  auto emit_page = [&]() -> Status {
    if (entries_in_page == 0) return Status::OK();
    StoreBig32(page.data() + 4,
               static_cast<uint32_t>(page.size() - kPageHeaderLen));
    StoreBig32(page.data() + 8, entries_in_page);
    StoreBig32(page.data(), Crc32c(0, page.data() + 4, page.size() - 4));
    BufferPool::WritePin pin;
    Status s = pool->PinForWrite(file_id, page_no + 1, &pin);
    if (!s.ok()) return s;
    memcpy(pin.data, page.data(), page.size());
    pool->Unpin(pin.frame);
    ++page_no;
    page.resize(kPageHeaderLen);
    entries_in_page = 0;
    return Status::OK();
  };
  while (st.ok()) {
    RunEntryView e;
    bool done = false;
    st = source(&e, &done);
    if (!st.ok() || done) break;
    const uint64_t need = EntryEncodedBytes(e);
    // StorageTier filters oversized entries.
    assert(need <= MaxEntryBytes(page_bytes));
    if (page.size() + need > page_bytes) {
      st = emit_page();
      if (!st.ok()) break;
    }
    if (entries_in_page == 0) fences.push_back(e.key.ToString());
    EncodeEntry(&page, e);
    ++entries_in_page;
    ++entry_count;
  }
  if (st.ok()) st = emit_page();
  if (st.ok()) st = pool->FlushFile(file_id);

  // Footer + trailer.
  if (st.ok()) {
    std::string footer;
    footer.append(kIndexMagic, kMagicLen);
    PutBig32(&footer, page_no);
    PutBig32(&footer, static_cast<uint32_t>(entry_count));
    for (const std::string& f : fences) PutLengthPrefixed(&footer, f);
    PutBig32(&footer, Crc32c(0, footer.data(), footer.size()));
    const uint64_t footer_offset =
        static_cast<uint64_t>(page_no + 1) * page_bytes;
    PutBig64(&footer, footer_offset);
    footer.append(kEndMagic, kMagicLen);
    st = PwriteFull(env, fd, footer.data(), footer.size(), footer_offset);
    if (st.ok() && fsync && env->Fsync(fd) != 0) {
      st = recovery::ErrnoStatus("fsync", tmp);
    }
    if (st.ok()) {
      st = env->Rename(tmp, path);
    }
    if (st.ok() && fsync) {
      st = recovery::SyncDir(
          std::filesystem::path(path).parent_path().string(), env);
    }
    if (st.ok()) {
      out->reset(new RunFile(path, std::move(file), table_id, seq,
                             page_bytes, page_no, entry_count,
                             std::move(fences), pool, env));
      return Status::OK();
    }
  }
  pool->Purge(file_id);
  env->RemoveFile(tmp);
  return st;
}

Status RunFile::Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const std::vector<RunEntry>& entries, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env) {
  assert(!entries.empty());
  size_t next_index = 0;
  const RunEntrySource source = [&](RunEntryView* next, bool* done) {
    *done = next_index == entries.size();
    if (!*done) {
      const RunEntry& e = entries[next_index++];
      *next = RunEntryView{e.key, e.value, e.commit_ts, e.tombstone};
    }
    return Status::OK();
  };
  return Create(path, table_id, seq, file_id, page_bytes, source, pool, fsync,
                out, env);
}

Status RunFile::Open(const std::string& path, uint64_t file_id,
                     BufferPool* pool, std::shared_ptr<RunFile>* out,
                     io::Env* env) {
  env = io::ResolveEnv(env);
  const int fd = env->Open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) return recovery::ErrnoStatus("open", path);
  auto file = std::make_shared<PoolFile>(file_id, fd, env);

  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size < kTrailerLen + kMagicLen) {
    return Status::Corruption("run too small: " + path);
  }
  // Trailer → footer offset → footer (fence index).
  char trailer[kTrailerLen];
  Status st = PreadFull(env, fd, trailer, kTrailerLen, size - kTrailerLen);
  if (!st.ok()) return st;
  if (memcmp(trailer + 8, kEndMagic, kMagicLen) != 0) {
    return Status::Corruption("bad run trailer: " + path);
  }
  uint64_t footer_offset = 0;
  {
    size_t off = 0;
    GetBig64(Slice(trailer, 8), &off, &footer_offset);
  }
  if (footer_offset + kTrailerLen > size) {
    return Status::Corruption("bad run footer offset: " + path);
  }
  std::string footer(size - kTrailerLen - footer_offset, '\0');
  st = PreadFull(env, fd, footer.data(), footer.size(), footer_offset);
  if (!st.ok()) return st;
  if (footer.size() < kMagicLen + 12 ||
      memcmp(footer.data(), kIndexMagic, kMagicLen) != 0) {
    return Status::Corruption("bad run index magic: " + path);
  }
  const uint32_t stored_crc_off = static_cast<uint32_t>(footer.size() - 4);
  uint32_t stored_crc = 0;
  {
    size_t off = stored_crc_off;
    GetBig32(footer, &off, &stored_crc);
  }
  if (Crc32c(0, footer.data(), stored_crc_off) != stored_crc) {
    return Status::Corruption("run index crc mismatch: " + path);
  }
  size_t off = kMagicLen;
  uint32_t page_count = 0, entry_count = 0;
  GetBig32(footer, &off, &page_count);
  GetBig32(footer, &off, &entry_count);
  std::vector<std::string> fences;
  fences.reserve(page_count);
  for (uint32_t i = 0; i < page_count; ++i) {
    std::string fence;
    if (!GetLengthPrefixed(footer, &off, &fence)) {
      return Status::Corruption("run fence truncated: " + path);
    }
    fences.push_back(std::move(fence));
  }

  // Header.
  std::string header(kMagicLen + 16, '\0');
  st = PreadFull(env, fd, header.data(), header.size(), 0);
  if (!st.ok()) return st;
  if (memcmp(header.data(), kRunMagic, kMagicLen) != 0) {
    return Status::Corruption("bad run magic: " + path);
  }
  size_t hoff = kMagicLen;
  uint32_t table_id = 0, page_bytes = 0;
  uint64_t seq = 0;
  GetBig32(header, &hoff, &table_id);
  GetBig32(header, &hoff, &page_bytes);
  GetBig64(header, &hoff, &seq);
  if (page_bytes != pool->page_bytes()) {
    return Status::Corruption("run page size mismatch: " + path);
  }
  if (footer_offset != static_cast<uint64_t>(page_count + 1) * page_bytes) {
    return Status::Corruption("run page count mismatch: " + path);
  }

  pool->RegisterFile(file);
  out->reset(new RunFile(path, std::move(file), table_id, seq, page_bytes,
                         page_count, entry_count, std::move(fences), pool,
                         env));
  return Status::OK();
}

Status RunFile::Lookup(BufferPool* pool, Slice key, RunEntry* out,
                       bool* found, bool* pinned) const {
  *found = false;
  if (pinned != nullptr) *pinned = false;
  if (fences_.empty()) return Status::OK();
  // Last fence <= key; fences_[0] is the run's smallest key.
  if (Slice(fences_[0]).compare(key) > 0) return Status::OK();
  size_t lo = 0, hi = fences_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Slice(fences_[mid]).compare(key) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  BufferPool::Pin pin;
  Status st = pool->PinPage(file_->id(), static_cast<uint32_t>(lo) + 1, &pin);
  if (!st.ok()) return st;
  if (pinned != nullptr) *pinned = true;
  Slice body;
  uint32_t entry_count = 0;
  st = ParsePage(reinterpret_cast<const char*>(pin.data), page_bytes_, &body,
                 &entry_count);
  size_t off = kPageHeaderLen;
  RunEntryView e;
  for (uint32_t i = 0; st.ok() && i < entry_count; ++i) {
    if (!DecodeEntry(body, &off, &e)) {
      st = Status::Corruption("run page entry damaged");
      break;
    }
    const int cmp = e.key.compare(key);
    if (cmp > 0) break;  // Sorted: key absent.
    if (cmp == 0) {
      out->key.assign(e.key.data(), e.key.size());
      out->value.assign(e.value.data(), e.value.size());
      out->commit_ts = e.commit_ts;
      out->tombstone = e.tombstone;
      *found = true;
      break;
    }
  }
  pool->Unpin(pin.frame);
  return st;
}

RunFile::Cursor::Cursor(const RunFile* run)
    : run_(run), page_(run->page_bytes_, '\0') {}

Status RunFile::Cursor::Next() {
  while (left_ == 0) {
    if (next_page_ == run_->page_count_) {
      valid_ = false;
      return Status::OK();
    }
    Status st = PreadFull(run_->env_, run_->file_->fd(), page_.data(),
                          page_.size(),
                          static_cast<uint64_t>(next_page_ + 1) *
                              run_->page_bytes_);
    if (!st.ok()) return st;
    st = ParsePage(page_.data(), run_->page_bytes_, &body_, &left_);
    if (!st.ok()) return st;
    offset_ = kPageHeaderLen;
    ++next_page_;
  }
  if (!DecodeEntry(body_, &offset_, &entry_)) {
    return Status::Corruption("run page entry damaged");
  }
  --left_;
  valid_ = true;
  return Status::OK();
}

Status RunFile::ForEachEntry(
    const std::function<void(const RunEntryView&)>& fn) const {
  Cursor cursor(this);
  for (;;) {
    Status st = cursor.Next();
    if (!st.ok()) return st;
    if (!cursor.valid()) return Status::OK();
    fn(cursor.entry());
  }
}

RunEntrySource MergeRuns(std::vector<std::shared_ptr<RunFile>> inputs) {
  struct Merge {
    std::vector<std::shared_ptr<RunFile>> runs;
    std::vector<RunFile::Cursor> cursors;
    /// Cursors to step before the next pick: all of them at first, then
    /// those that sat on the key emitted last.
    std::vector<bool> stale;
  };
  auto m = std::make_shared<Merge>();
  m->runs = std::move(inputs);
  m->cursors.reserve(m->runs.size());
  for (const auto& run : m->runs) m->cursors.emplace_back(run.get());
  m->stale.assign(m->cursors.size(), true);
  return [m](RunEntryView* next, bool* done) -> Status {
    const size_t n = m->cursors.size();
    for (size_t i = 0; i < n; ++i) {
      if (!m->stale[i]) continue;
      Status st = m->cursors[i].Next();
      if (!st.ok()) return st;
      m->stale[i] = false;
    }
    // The smallest key; among equal keys the highest commit_ts, and among
    // equal commit_ts the earliest input (the newest run).
    const RunEntryView* best = nullptr;
    for (const RunFile::Cursor& c : m->cursors) {
      if (!c.valid()) continue;
      const RunEntryView& e = c.entry();
      if (best == nullptr) {
        best = &e;
        continue;
      }
      const int cmp = e.key.compare(best->key);
      if (cmp < 0 || (cmp == 0 && e.commit_ts > best->commit_ts)) best = &e;
    }
    *done = best == nullptr;
    if (*done) return Status::OK();
    // Every cursor on this key moves on at the next call, after the writer
    // has copied *next out of the winner's page.
    for (size_t i = 0; i < n; ++i) {
      m->stale[i] = m->cursors[i].valid() &&
                    m->cursors[i].entry().key == best->key;
    }
    *next = *best;
    return Status::OK();
  };
}

}  // namespace ssidb
