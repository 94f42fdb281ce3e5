#include "src/recovery/manifest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/recovery/fs_util.h"

namespace ssidb::recovery {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'S', 'S', 'I', 'D', 'B', 'M', 'F', '1'};
constexpr char kPrefix[] = "manifest-";
constexpr char kSuffix[] = ".mf";

Status Parse(const std::string& contents, Manifest* out) {
  if (contents.size() < sizeof(kMagic) + sizeof(uint32_t) ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad manifest magic");
  }
  const size_t body_size = contents.size() - sizeof(uint32_t);
  const Slice body(contents.data(), body_size);
  size_t off = body_size;
  uint32_t stored_crc = 0;
  if (!GetBig32(contents, &off, &stored_crc) || Crc32c(body) != stored_crc) {
    return Status::Corruption("manifest crc mismatch");
  }
  off = sizeof(kMagic);
  Manifest m;
  uint32_t count = 0;
  if (!GetBig64(body, &off, &m.watermark) || !GetBig32(body, &off, &count)) {
    return Status::Corruption("manifest header short");
  }
  if (count > (body_size - off) / sizeof(uint32_t)) {
    return Status::Corruption("manifest table count too large");
  }
  m.tables.resize(count);
  for (std::string& name : m.tables) {
    if (!GetLengthPrefixed(body, &off, &name)) {
      return Status::Corruption("manifest table entry short");
    }
  }
  if (off != body_size) return Status::Corruption("trailing manifest bytes");
  *out = std::move(m);
  return Status::OK();
}

}  // namespace

std::string ManifestFileName(Timestamp watermark) {
  return NumberedFileName(kPrefix, watermark, kSuffix);
}

Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     bool do_fsync, io::Env* env, uint64_t* bytes) {
  env = io::ResolveEnv(env);
  Status st = env->CreateDirs(dir);
  if (!st.ok()) return st;
  std::string contents(kMagic, sizeof(kMagic));
  PutBig64(&contents, manifest.watermark);
  PutBig32(&contents, static_cast<uint32_t>(manifest.tables.size()));
  for (const std::string& name : manifest.tables) {
    PutLengthPrefixed(&contents, name);
  }
  PutBig32(&contents, Crc32c(contents));

  const std::string path = dir + "/" + ManifestFileName(manifest.watermark);
  const std::string tmp = path + ".tmp";
  st = WriteFileDurably(tmp, contents, do_fsync, env);
  if (st.ok()) st = env->Rename(tmp, path);
  if (!st.ok()) {
    env->RemoveFile(tmp);
    return st;
  }
  if (do_fsync) {
    st = SyncDir(dir, env);
    if (!st.ok()) return st;
  }
  if (bytes != nullptr) *bytes = contents.size();
  return Status::OK();
}

bool DropManifestsBefore(const std::string& dir, Timestamp watermark,
                         io::Env* env) {
  env = io::ResolveEnv(env);
  bool all = true;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    Timestamp wm = 0;
    const bool stale = ParseNumberedFileName(name, kPrefix, kSuffix, &wm)
                           ? wm < watermark
                           : name.rfind(kPrefix, 0) == 0 &&
                                 entry.path().extension() == ".tmp";
    if (stale && !env->RemoveFile(entry.path().string()).ok()) all = false;
  }
  return all && !ec;
}

Status LoadNewestManifest(const std::string& dir, Manifest* out,
                          bool* found) {
  *found = false;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return Status::OK();
  std::vector<std::pair<Timestamp, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    Timestamp wm = 0;
    if (ParseNumberedFileName(entry.path().filename().string(), kPrefix,
                              kSuffix, &wm)) {
      candidates.emplace_back(wm, entry.path().string());
    }
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(candidates.rbegin(), candidates.rend());
  for (const auto& [wm, path] : candidates) {
    std::string contents;
    Manifest m;
    if (ReadFileToString(path, &contents).ok() && Parse(contents, &m).ok() &&
        m.watermark == wm) {
      *out = std::move(m);
      *found = true;
      return Status::OK();
    }
  }
  if (!candidates.empty()) {
    return Status::Corruption("no valid checkpoint manifest in " + dir);
  }
  return Status::OK();
}

}  // namespace ssidb::recovery
