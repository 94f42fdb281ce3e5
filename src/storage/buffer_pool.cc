#include "src/storage/buffer_pool.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/obs/trace_ring.h"

namespace ssidb {

namespace {

/// Writeback retry budget: the first attempt plus this many retries, with
/// exponential backoff, before the failure is surfaced to the claimer.
constexpr int kWritebackRetries = 2;
constexpr uint32_t kWritebackBackoffUs = 50;

Status PreadFull(io::Env* env, int fd, void* buf, size_t n, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = env->Pread(fd, p + done, n - done,
                                 static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + strerror(errno));
    }
    if (r == 0) {
      // Short file: the tail of the page is zero (the writer pads pages,
      // so this only happens for a corrupt/truncated file — the page CRC
      // check downstream rejects it).
      memset(p + done, 0, n - done);
      return Status::OK();
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PwriteFull(io::Env* env, int fd, const void* buf, size_t n,
                  uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = env->Pwrite(fd, p + done, n - done,
                                  static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite: ") + strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

PoolFile::~PoolFile() {
  if (fd_ >= 0) env_->Close(fd_);
}

BufferPool::BufferPool(uint64_t pool_bytes, uint32_t page_bytes,
                       io::Env* env)
    : page_bytes_(page_bytes),
      env_(io::ResolveEnv(env)),
      arena_(new uint8_t[static_cast<size_t>(
          (pool_bytes / page_bytes < 4 ? 4 : pool_bytes / page_bytes) *
          page_bytes)]) {
  const size_t n = static_cast<size_t>(
      pool_bytes / page_bytes < 4 ? 4 : pool_bytes / page_bytes);
  frames_.reserve(n);
  free_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_.push_back(static_cast<uint32_t>(n - 1 - i));
  }
}

BufferPool::~BufferPool() = default;

void BufferPool::RegisterFile(const std::shared_ptr<PoolFile>& file) {
  std::lock_guard<std::mutex> guard(map_mu_);
  files_[file->id()] = file;
}

void BufferPool::Purge(uint64_t file_id) {
  std::lock_guard<std::mutex> guard(map_mu_);
  files_.erase(file_id);
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& fr = *frames_[i];
    if (fr.state == FrameState::kFree || fr.file_id != file_id) continue;
    if (fr.pins.load(std::memory_order_acquire) != 0) {
      // A faulter still parses this page; it keeps the frame (and the
      // descriptor, via fr.file) until Unpin. The mapping stays — the
      // purged id is never looked up again, and the clock reclaims the
      // frame once unpinned.
      continue;
    }
    map_.erase(TagKey{fr.file_id, fr.page_no});
    fr.state = FrameState::kFree;
    fr.dirty = false;
    fr.referenced = false;
    fr.file.reset();
    free_.push_back(i);
  }
}

bool BufferPool::ClaimVictimLocked(uint32_t* idx) {
  if (!free_.empty()) {
    *idx = free_.back();
    free_.pop_back();
    return true;
  }
  // Clock scan, at most two full revolutions: the first clears reference
  // bits, the second takes the first unpinned frame.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& fr = *frames_[clock_hand_];
    const uint32_t at = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % static_cast<uint32_t>(n);
    if (fr.pins.load(std::memory_order_acquire) != 0) continue;
    if (fr.state == FrameState::kLoading) continue;
    if (fr.referenced) {
      fr.referenced = false;  // Second chance.
      continue;
    }
    *idx = at;
    return true;
  }
  return false;  // Every frame pinned.
}

Status BufferPool::ClaimFrameLocked(uint64_t file_id, uint32_t page_no,
                                    const std::shared_ptr<PoolFile>& file,
                                    uint32_t* idx, Writeback* wb) {
  uint32_t victim = 0;
  if (!ClaimVictimLocked(&victim)) {
    return Status::IOError("buffer pool exhausted: every frame pinned");
  }
  Frame& fr = *frames_[victim];
  if (fr.state != FrameState::kFree && fr.dirty) {
    // Dirty victim: nothing is claimed. Pin it in place (it keeps its tag,
    // its mapping and its content) and hand the writeback to the caller —
    // the dirty bit only clears on a successful write, so a failure can
    // never lose the page; the frame just stays ineligible for reuse.
    fr.pins.fetch_add(1, std::memory_order_acq_rel);
    wb->needed = true;
    wb->file = fr.file;
    wb->file_id = fr.file_id;
    wb->page_no = fr.page_no;
    wb->frame = victim;
    return Status::OK();
  }
  if (fr.state != FrameState::kFree) {
    map_.erase(TagKey{fr.file_id, fr.page_no});
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  fr.file_id = file_id;
  fr.page_no = page_no;
  fr.state = FrameState::kLoading;
  fr.dirty = false;
  fr.referenced = true;
  fr.file = file;
  fr.pins.store(1, std::memory_order_release);
  map_[TagKey{file_id, page_no}] = victim;
  *idx = victim;
  return Status::OK();
}

Status BufferPool::WritebackFrame(const Writeback& wb) {
  Status st;
  for (int attempt = 0; attempt <= kWritebackRetries; ++attempt) {
    if (attempt > 0) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(kWritebackBackoffUs << attempt));
    }
    const uint64_t t0 = obs::NowNanos();
    st = PwriteFull(env_, wb.file->fd(), frame_data(wb.frame), page_bytes_,
                    static_cast<uint64_t>(wb.page_no) * page_bytes_);
    write_io_ns_.Record(obs::NowNanos() - t0);
    if (st.ok()) break;
  }
  if (!st.ok()) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    if (obs::TraceRing* trace = trace_.load(std::memory_order_acquire)) {
      trace->Emit(obs::TraceEvent::kIOError, 0, /*arg16=*/3,
                  /*arg32=*/wb.page_no, /*payload=*/wb.file_id);
    }
    return st;  // Frame stays dirty + mapped: nothing lost.
  }
  {
    // The caller's pin keeps the tag stable; the re-check is belt and
    // braces against a future claim-path change.
    std::lock_guard<std::mutex> guard(map_mu_);
    Frame& fr = *frames_[wb.frame];
    if (fr.file_id == wb.file_id && fr.page_no == wb.page_no &&
        fr.state == FrameState::kValid) {
      fr.dirty = false;
    }
  }
  writebacks_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status BufferPool::PinPage(uint64_t file_id, uint32_t page_no, Pin* out) {
  for (int attempt = 0;; ++attempt) {
    std::shared_ptr<PoolFile> file;
    uint32_t idx = 0;
    Writeback wb;
    bool loader = false;
    {
      std::lock_guard<std::mutex> guard(map_mu_);
      auto it = map_.find(TagKey{file_id, page_no});
      if (it != map_.end()) {
        Frame& fr = *frames_[it->second];
        fr.pins.fetch_add(1, std::memory_order_acq_rel);
        fr.referenced = true;
        idx = it->second;
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        auto fit = files_.find(file_id);
        if (fit == files_.end()) {
          return Status::IOError("buffer pool: unregistered file");
        }
        file = fit->second;
        Status st = ClaimFrameLocked(file_id, page_no, file, &idx, &wb);
        if (!st.ok()) {
          if (attempt < 1024) {
            // Transient: every frame pinned. Release the mutex and retry;
            // pins are short (parse one page), so this resolves quickly
            // even for a 4-frame test pool.
            goto retry;
          }
          return st;
        }
        if (!wb.needed) {
          loader = true;
          misses_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }

    if (wb.needed) {
      // The victim was dirty: write it back in place (outside map_mu_),
      // then try the claim again — only a clean frame is ever retagged.
      Status st = WritebackFrame(wb);
      Unpin(wb.frame);
      if (!st.ok()) return st;
      continue;
    }

    if (loader) {
      // Read the page outside map_mu_, while the frame is exclusively
      // ours (one pin, state kLoading keeps waiters parked and the clock
      // away).
      Frame& fr = *frames_[idx];
      Status st;
      {
        const uint64_t t0 = obs::NowNanos();
        st = PreadFull(env_, file->fd(), frame_data(idx), page_bytes_,
                       static_cast<uint64_t>(page_no) * page_bytes_);
        read_io_ns_.Record(obs::NowNanos() - t0);
      }
      {
        std::lock_guard<std::mutex> io_guard(fr.io_mu);
        std::lock_guard<std::mutex> guard(map_mu_);
        fr.state = st.ok() ? FrameState::kValid : FrameState::kFailed;
        if (!st.ok()) {
          // Unmap so a later retry reloads instead of caching the failure.
          map_.erase(TagKey{file_id, page_no});
        }
      }
      fr.io_cv.notify_all();
      if (!st.ok()) {
        Unpin(idx);
        return st;
      }
      out->data = frame_data(idx);
      out->frame = idx;
      return Status::OK();
    }

    {
      // Found in the map: wait out a concurrent loader, then check how the
      // load ended.
      Frame& fr = *frames_[idx];
      FrameState state;
      bool tag_matches;
      {
        std::unique_lock<std::mutex> io_guard(fr.io_mu);
        fr.io_cv.wait(io_guard, [&] {
          std::lock_guard<std::mutex> guard(map_mu_);
          return fr.state != FrameState::kLoading;
        });
        std::lock_guard<std::mutex> guard(map_mu_);
        state = fr.state;
        // Our pin (taken under map_mu_ at lookup) blocks any retag, so the
        // tag must still be ours; re-validate anyway — returning another
        // page's bytes on a mismatch would be silent corruption.
        tag_matches = fr.file_id == file_id && fr.page_no == page_no;
      }
      if (state == FrameState::kValid && tag_matches) {
        out->data = frame_data(idx);
        out->frame = idx;
        return Status::OK();
      }
      Unpin(idx);  // Load failed (or frame recycled): retry from the map.
      if (attempt >= 1024) {
        return Status::IOError("buffer pool: page load failed");
      }
    }
  retry:
    std::this_thread::yield();
  }
}

Status BufferPool::PinForWrite(uint64_t file_id, uint32_t page_no,
                               WritePin* out) {
  for (;;) {
    uint32_t idx = 0;
    Writeback wb;
    {
      std::lock_guard<std::mutex> guard(map_mu_);
      auto fit = files_.find(file_id);
      if (fit == files_.end()) {
        return Status::IOError("buffer pool: unregistered file");
      }
      Status st = ClaimFrameLocked(file_id, page_no, fit->second, &idx, &wb);
      if (!st.ok()) return st;
    }
    if (wb.needed) {
      // Dirty victim: write it back in place first. A failure surfaces
      // here (run creation fails, caller cleans up) while the victim's
      // page survives, dirty and mapped.
      Status st = WritebackFrame(wb);
      Unpin(wb.frame);
      if (!st.ok()) return st;
      continue;
    }
    Frame& fr = *frames_[idx];
    memset(frame_data(idx), 0, page_bytes_);
    {
      std::lock_guard<std::mutex> io_guard(fr.io_mu);
      std::lock_guard<std::mutex> guard(map_mu_);
      fr.state = FrameState::kValid;
      fr.dirty = true;
    }
    fr.io_cv.notify_all();
    out->data = frame_data(idx);
    out->frame = idx;
    return Status::OK();
  }
}

void BufferPool::Unpin(uint32_t frame) {
  frames_[frame]->pins.fetch_sub(1, std::memory_order_acq_rel);
}

Status BufferPool::FlushFile(uint64_t file_id) {
  // Collect the dirty pages under the mutex, pinning each so the clock
  // cannot steal a frame mid-write; write outside. The dirty bit clears
  // only when WritebackFrame's write succeeds — a failed flush leaves
  // every unwritten page dirty and mapped, so a retried FlushFile (or the
  // eviction path) finds exactly the pages that still need the disk.
  std::vector<Writeback> work;
  {
    std::lock_guard<std::mutex> guard(map_mu_);
    for (uint32_t i = 0; i < frames_.size(); ++i) {
      Frame& fr = *frames_[i];
      if (fr.state != FrameState::kValid || !fr.dirty ||
          fr.file_id != file_id) {
        continue;
      }
      fr.pins.fetch_add(1, std::memory_order_acq_rel);
      Writeback wb;
      wb.needed = true;
      wb.file = fr.file;
      wb.file_id = fr.file_id;
      wb.page_no = fr.page_no;
      wb.frame = i;
      work.push_back(std::move(wb));
    }
  }
  Status st;
  for (const Writeback& w : work) {
    if (st.ok()) st = WritebackFrame(w);
    Unpin(w.frame);
  }
  return st;
}

void BufferPool::RegisterMetrics(obs::MetricsRegistry* registry,
                                 obs::TraceRing* trace) {
  registry->RegisterCounter("pool.hits", [this] { return hits(); });
  registry->RegisterCounter("pool.misses", [this] { return misses(); });
  registry->RegisterCounter("pool.evictions", [this] { return evictions(); });
  registry->RegisterCounter("pool.writebacks",
                            [this] { return writebacks(); });
  registry->RegisterCounter("io.retries", [this] { return io_retries(); });
  registry->RegisterCounter("io.errors.pool", [this] { return io_errors(); });
  registry->RegisterHistogram("pool.read_io_ns", &read_io_ns_);
  registry->RegisterHistogram("pool.write_io_ns", &write_io_ns_);
  if (trace != nullptr) trace_.store(trace, std::memory_order_release);
}

}  // namespace ssidb
