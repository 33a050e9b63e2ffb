#include "core/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

namespace affinity::core {

namespace {

constexpr char kMagic[4] = {'A', 'F', 'F', 'M'};

/// Buffered little-endian-naive binary writer.
class Writer {
 public:
  explicit Writer(std::ostream* out) : out_(out) {}

  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Bool(bool v) {
    const std::uint8_t b = v ? 1 : 0;
    Raw(&b, 1);
  }
  void Str(const std::string& s) {
    Size(s.size());
    Raw(s.data(), s.size());
  }
  void F64Span(const double* data, std::size_t count) { Raw(data, count * sizeof(double)); }

  bool ok() const { return static_cast<bool>(*out_); }

 private:
  void Raw(const void* data, std::size_t bytes) {
    out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  }
  std::ostream* out_;
};

/// Binary reader with truncation checks; any failure poisons the stream.
class Reader {
 public:
  explicit Reader(std::istream* in) : in_(in) {}

  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::size_t Size(std::size_t sanity_max) {
    const std::uint64_t v = U64();
    if (v > sanity_max) fail_ = true;
    return fail_ ? 0 : static_cast<std::size_t>(v);
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  bool Bool() {
    std::uint8_t b = 0;
    Raw(&b, 1);
    if (b > 1) fail_ = true;
    return b == 1;
  }
  std::string Str() {
    const std::size_t len = Size(1u << 20);
    std::string s(len, '\0');
    Raw(s.data(), len);
    return s;
  }
  void F64Span(double* data, std::size_t count) { Raw(data, count * sizeof(double)); }

  bool ok() const { return !fail_ && static_cast<bool>(*in_); }

 private:
  void Raw(void* data, std::size_t bytes) {
    if (fail_) return;
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    if (in_->gcount() != static_cast<std::streamsize>(bytes)) fail_ = true;
  }
  std::istream* in_;
  bool fail_ = false;
};

void WriteMatrix(Writer* w, const la::Matrix& mat) {
  w->Size(mat.rows());
  w->Size(mat.cols());
  for (std::size_t j = 0; j < mat.cols(); ++j) w->F64Span(mat.ColData(j), mat.rows());
}

la::Matrix ReadMatrix(Reader* r) {
  const std::size_t rows = r->Size(1u << 28);
  const std::size_t cols = r->Size(1u << 28);
  if (!r->ok()) return la::Matrix();
  la::Matrix mat(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) r->F64Span(mat.ColData(j), rows);
  return mat;
}

void WritePivot(Writer* w, const PivotPair& p) {
  w->U32(p.series);
  w->U32(p.cluster);
  w->Bool(p.series_first);
}

PivotPair ReadPivot(Reader* r) {
  PivotPair p;
  p.series = r->U32();
  p.cluster = r->U32();
  p.series_first = r->Bool();
  return p;
}

void WriteMeasures(Writer* w, const PairMatrixMeasures& pm) {
  for (int i = 0; i < 2; ++i) w->F64(pm.mean[i]);
  for (int i = 0; i < 2; ++i) w->F64(pm.median[i]);
  for (int i = 0; i < 2; ++i) w->F64(pm.mode[i]);
  w->F64(pm.cov11);
  w->F64(pm.cov12);
  w->F64(pm.cov22);
  w->F64(pm.dot11);
  w->F64(pm.dot12);
  w->F64(pm.dot22);
  w->F64(pm.h1);
  w->F64(pm.h2);
  w->Size(pm.m);
}

PairMatrixMeasures ReadMeasures(Reader* r) {
  PairMatrixMeasures pm;
  for (int i = 0; i < 2; ++i) pm.mean[i] = r->F64();
  for (int i = 0; i < 2; ++i) pm.median[i] = r->F64();
  for (int i = 0; i < 2; ++i) pm.mode[i] = r->F64();
  pm.cov11 = r->F64();
  pm.cov12 = r->F64();
  pm.cov22 = r->F64();
  pm.dot11 = r->F64();
  pm.dot12 = r->F64();
  pm.dot22 = r->F64();
  pm.h1 = r->F64();
  pm.h2 = r->F64();
  pm.m = r->Size(1u << 30);
  return pm;
}

}  // namespace

Status SaveModel(const AffinityModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  AFFINITY_RETURN_IF_ERROR(WriteModelStream(model, out));
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Status WriteModelStream(const AffinityModel& model, std::ostream& out) {
  Writer w(&out);

  out.write(kMagic, sizeof kMagic);
  w.U32(kModelFormatVersion);

  // Data matrix + names + block-grid anchor.
  WriteMatrix(&w, model.data_.matrix());
  w.Size(model.data_.names().size());
  for (const std::string& name : model.data_.names()) w.Str(name);
  w.Size(model.data_.anchor_row());

  // Clustering.
  WriteMatrix(&w, model.clustering_.centers);
  w.Size(model.clustering_.assignment.size());
  for (int a : model.clustering_.assignment) w.U32(static_cast<std::uint32_t>(a));
  w.U32(static_cast<std::uint32_t>(model.clustering_.iterations));
  w.Size(model.clustering_.projection_errors.size());
  w.F64Span(model.clustering_.projection_errors.data(),
            model.clustering_.projection_errors.size());

  // affHash — ForEachRelationship visits in ascending key order, so the
  // byte stream is canonical for a given model: it cannot drift with the
  // hash-table layout. The reader inserts by key, so order is free.
  w.Size(model.aff_hash_.size());
  model.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    w.U64((static_cast<std::uint64_t>(e.u) << 32) | static_cast<std::uint64_t>(e.v));
    WritePivot(&w, rec.pivot);
    w.F64(rec.transform.a11);
    w.F64(rec.transform.a21);
    w.F64(rec.transform.a12);
    w.F64(rec.transform.a22);
    w.F64(rec.transform.b1);
    w.F64(rec.transform.b2);
  });

  // pivotHash — same canonical order as affHash.
  w.Size(model.pivot_hash_.size());
  model.ForEachPivot([&](const PivotPair& p, const PairMatrixMeasures& pm) {
    w.U64(p.Key());
    WritePivot(&w, p);
    WriteMeasures(&w, pm);
  });

  // Per-series stats + series-level relationships.
  w.Size(model.series_stats_.size());
  for (const SeriesStats& st : model.series_stats_) {
    w.F64(st.mean);
    w.F64(st.variance);
    w.F64(st.sumsq);
    w.F64(st.sum);
  }
  w.Size(model.series_affine_.size());
  for (const SeriesAffine& sa : model.series_affine_) {
    w.F64(sa.gain);
    w.F64(sa.offset);
  }

  // Centre L-measures.
  w.Size(model.center_loc_.size());
  for (const auto& row : model.center_loc_) {
    w.Size(row.size());
    w.F64Span(row.data(), row.size());
  }

  // Build stats.
  w.Size(model.stats_.relationships);
  w.Size(model.stats_.pivots);
  w.Size(model.stats_.cache_hits);
  w.Size(model.stats_.cache_misses);
  w.F64(model.stats_.afclst_seconds);
  w.F64(model.stats_.march_seconds);
  w.F64(model.stats_.preprocess_seconds);

  if (!w.ok()) return Status::IoError("model stream write failed");
  return Status::OK();
}

StatusOr<AffinityModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  auto model = ReadModelStream(in);
  if (!model.ok()) {
    return Status(model.status().code(), "'" + path + "': " + model.status().message());
  }
  return model;
}

StatusOr<AffinityModel> ReadModelStream(std::istream& in) {
  Reader r(&in);

  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not an AFFINITY model payload");
  }
  const std::uint32_t version = r.U32();
  if (version < kMinModelFormatVersion || version > kModelFormatVersion) {
    return Status::InvalidArgument("unsupported model format version " +
                                   std::to_string(version));
  }

  AffinityModel model;

  la::Matrix values = ReadMatrix(&r);
  const std::size_t name_count = r.Size(1u << 28);
  if (!r.ok() || name_count != values.cols()) {
    return Status::InvalidArgument("corrupt data-matrix section");
  }
  std::vector<std::string> names(name_count);
  for (auto& name : names) name = r.Str();
  // v1 payloads predate the block-grid anchor; they were written (and
  // their measures computed) at the historic phase-0 order, so 0 is the
  // faithful default, not merely a safe one.
  const std::size_t anchor = version >= 2 ? r.Size(~std::size_t{0} >> 1) : 0;
  if (!r.ok()) return Status::InvalidArgument("corrupt names section");
  model.data_ = ts::DataMatrix(std::move(values), std::move(names));
  model.data_.set_anchor_row(anchor);

  model.clustering_.centers = ReadMatrix(&r);
  const std::size_t assign_count = r.Size(1u << 28);
  model.clustering_.assignment.resize(assign_count);
  for (auto& a : model.clustering_.assignment) a = static_cast<int>(r.U32());
  model.clustering_.iterations = static_cast<int>(r.U32());
  const std::size_t proj_count = r.Size(1u << 28);
  model.clustering_.projection_errors.resize(proj_count);
  r.F64Span(model.clustering_.projection_errors.data(), proj_count);
  if (!r.ok() || assign_count != model.data_.n()) {
    return Status::InvalidArgument("corrupt clustering section");
  }
  const std::size_t n = model.data_.n();
  const std::size_t k = model.clustering_.centers.cols();
  if (model.clustering_.centers.rows() != model.data_.m()) {
    return Status::InvalidArgument("cluster centres differ from the window length");
  }
  for (const int a : model.clustering_.assignment) {
    if (a < 0 || static_cast<std::size_t>(a) >= k) {
      return Status::InvalidArgument("cluster assignment out of range");
    }
  }

  // Every id below is used as an index downstream, and the incremental
  // solve relies on each pivot taking its target series' cluster (SYMEX's
  // SolveInsert: (u, ω(v)) series-first, (ω(u), v) otherwise), so a
  // payload that breaks either is rejected as it is read.
  const std::size_t rel_count = r.Size(1u << 30);
  model.aff_hash_.reserve(rel_count);
  for (std::size_t i = 0; i < rel_count && r.ok(); ++i) {
    const std::uint64_t key = r.U64();
    AffineRecord rec;
    rec.pivot = ReadPivot(&r);
    rec.transform.a11 = r.F64();
    rec.transform.a21 = r.F64();
    rec.transform.a12 = r.F64();
    rec.transform.a22 = r.F64();
    rec.transform.b1 = r.F64();
    rec.transform.b2 = r.F64();
    if (!r.ok()) break;
    const std::uint64_t u = key >> 32;
    const std::uint64_t v = key & 0xffffffffULL;
    if (u >= v || v >= n) return Status::InvalidArgument("relationship key out of range");
    const std::uint64_t series = rec.pivot.series_first ? u : v;
    const std::uint64_t target = rec.pivot.series_first ? v : u;
    const int cluster = model.clustering_.assignment[target];
    if (rec.pivot.series != series || rec.pivot.cluster != static_cast<std::uint32_t>(cluster)) {
      return Status::InvalidArgument("relationship pivot disagrees with the clustering");
    }
    model.aff_hash_.emplace(key, rec);
  }

  const std::size_t pivot_count = r.Size(1u << 30);
  model.pivot_hash_.reserve(pivot_count);
  for (std::size_t i = 0; i < pivot_count && r.ok(); ++i) {
    const std::uint64_t key = r.U64();
    PivotHashEntry entry;
    entry.pivot = ReadPivot(&r);
    entry.measures = ReadMeasures(&r);
    if (!r.ok()) break;
    if (key != entry.pivot.Key()) {
      return Status::InvalidArgument("pivot-hash key disagrees with its entry");
    }
    if (entry.pivot.series >= n || entry.pivot.cluster >= k) {
      return Status::InvalidArgument("pivot-hash entry out of range");
    }
    model.pivot_hash_.emplace(key, entry);
  }

  const std::size_t stats_count = r.Size(1u << 28);
  model.series_stats_.resize(stats_count);
  for (auto& st : model.series_stats_) {
    st.mean = r.F64();
    st.variance = r.F64();
    st.sumsq = r.F64();
    st.sum = r.F64();
  }
  const std::size_t affine_count = r.Size(1u << 28);
  model.series_affine_.resize(affine_count);
  for (auto& sa : model.series_affine_) {
    sa.gain = r.F64();
    sa.offset = r.F64();
  }
  if (!r.ok() || stats_count != model.data_.n() || affine_count != model.data_.n()) {
    return Status::InvalidArgument("corrupt per-series section");
  }

  const std::size_t loc_rows = r.Size(16);
  model.center_loc_.resize(loc_rows);
  for (auto& row : model.center_loc_) {
    const std::size_t cols = r.Size(1u << 28);
    row.resize(cols);
    r.F64Span(row.data(), cols);
  }

  model.stats_.relationships = r.Size(1u << 30);
  model.stats_.pivots = r.Size(1u << 30);
  model.stats_.cache_hits = r.Size(~std::size_t{0} >> 1);
  model.stats_.cache_misses = r.Size(~std::size_t{0} >> 1);
  model.stats_.afclst_seconds = r.F64();
  model.stats_.march_seconds = r.F64();
  model.stats_.preprocess_seconds = r.F64();

  if (!r.ok()) return Status::InvalidArgument("truncated or corrupt payload");
  if (model.stats_.relationships != model.aff_hash_.size() ||
      model.stats_.pivots != model.pivot_hash_.size()) {
    return Status::InvalidArgument("inconsistent section counts");
  }
  // affinity-lint: allow(unordered-iter): any hit rejects the payload with one message
  for (const auto& [key, rec] : model.aff_hash_) {
    if (model.pivot_hash_.count(rec.pivot.Key()) == 0) {
      return Status::InvalidArgument("relationship names a missing pivot");
    }
  }
  if (model.center_loc_.size() != 3) {
    return Status::InvalidArgument("centre L-measures are not 3 x k");
  }
  for (const auto& row : model.center_loc_) {
    if (row.size() != k) return Status::InvalidArgument("centre L-measures are not 3 x k");
  }
  return model;
}

}  // namespace affinity::core
