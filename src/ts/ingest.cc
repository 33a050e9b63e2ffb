#include "ts/ingest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace affinity::ts {

Status ValidateIngestOptions(const IngestOptions& options) {
  if (!std::isfinite(options.origin)) {
    return Status::InvalidArgument("ingest origin must be finite");
  }
  if (!std::isfinite(options.tick) || options.tick <= 0.0) {
    return Status::InvalidArgument("ingest tick must be a positive finite value");
  }
  return Status::OK();
}

StreamAligner::StreamAligner(std::size_t n, const IngestOptions& options)
    : n_(n),
      options_(options),
      last_value_(n, 0.0),
      has_last_(n, 0),
      last_slot_(n, 0) {
  AFFINITY_CHECK(ValidateIngestOptions(options).ok());
  AFFINITY_CHECK(n > 0);
}

StreamAligner::PendingRow& StreamAligner::RowForSlot(std::int64_t slot) {
  AFFINITY_DCHECK(slot >= next_slot_);
  const std::size_t offset = static_cast<std::size_t>(slot - next_slot_);
  while (pending_.size() <= offset) {
    PendingRow row;
    row.values.assign(n_, 0.0);
    row.observed.assign(n_, 0);
    pending_.push_back(std::move(row));
  }
  return pending_[offset];
}

Status StreamAligner::Push(SeriesId series, double timestamp, double value) {
  if (series >= n_) {
    return Status::OutOfRange("series " + std::to_string(series) + " out of range (n=" +
                              std::to_string(n_) + ")");
  }
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("sample timestamp must be finite");
  }
  // Snap to the nearest grid slot; anything off-grid is counted so the
  // parse/ingest report surfaces clock skew.
  const double pos = (timestamp - options_.origin) / options_.tick;
  const double snapped = std::nearbyint(pos);
  const std::int64_t slot = static_cast<std::int64_t>(snapped);
  if (slot < 0) return Status::OutOfRange("sample timestamp precedes the grid origin");
  if (std::abs(pos - snapped) > 1e-9) ++stats_.snapped;
  if (!std::isfinite(value)) {
    // A NaN/Inf sample is a gap, never a poisoned moment: drop the value,
    // leave the slot unobserved, and account for it.
    ++stats_.nonfinite;
    return Status::OK();
  }
  if (slot < next_slot_) {
    ++stats_.late;
    return Status::OK();
  }
  PendingRow& row = RowForSlot(slot);
  if (row.observed[series]) ++stats_.duplicates;
  row.values[series] = value;
  row.observed[series] = 1;
  ++stats_.samples;
  any_sample_ = true;
  max_slot_ = std::max(max_slot_, slot);
  return Status::OK();
}

void StreamAligner::EmitFront(std::vector<AlignedRow>* out) {
  AlignedRow row;
  row.slot = next_slot_;
  row.values.assign(n_, 0.0);
  row.valid.assign(n_, 0);
  row.filled.assign(n_, 0);
  const PendingRow* pending = pending_.empty() ? nullptr : &pending_.front();
  for (std::size_t j = 0; j < n_; ++j) {
    if (pending != nullptr && pending->observed[j]) {
      row.values[j] = pending->values[j];
      row.valid[j] = 1;
      last_value_[j] = pending->values[j];
      has_last_[j] = 1;
      last_slot_[j] = next_slot_;
      continue;
    }
    // Missing sample: forward-fill from the last observation while the
    // gap is within the horizon, else an explicit (but finite) gap.
    row.values[j] = has_last_[j] ? last_value_[j] : 0.0;
    const bool fillable =
        has_last_[j] &&
        static_cast<std::size_t>(next_slot_ - last_slot_[j]) <= options_.max_fill;
    if (fillable) {
      row.valid[j] = 1;
      row.filled[j] = 1;
      ++stats_.fills;
    } else {
      ++stats_.gaps;
    }
  }
  if (!pending_.empty()) pending_.pop_front();
  ++next_slot_;
  ++stats_.rows;
  out->push_back(std::move(row));
}

std::size_t StreamAligner::EmitUpTo(double timestamp, std::vector<AlignedRow>* out) {
  AFFINITY_CHECK(out != nullptr);
  const double pos = (timestamp - options_.origin) / options_.tick;
  const std::int64_t stop = static_cast<std::int64_t>(std::ceil(pos));
  std::size_t emitted = 0;
  while (next_slot_ < stop) {
    EmitFront(out);
    ++emitted;
  }
  return emitted;
}

std::size_t StreamAligner::Flush(std::vector<AlignedRow>* out) {
  AFFINITY_CHECK(out != nullptr);
  if (!any_sample_ && pending_.empty()) return 0;
  std::size_t emitted = 0;
  while (!pending_.empty() || next_slot_ <= max_slot_) {
    EmitFront(out);
    ++emitted;
  }
  return emitted;
}

double CompositeQualityScore(const SeriesQuality& q) {
  if (q.length == 0) return 1.0;
  const double len = static_cast<double>(q.length);
  const double completeness = static_cast<double>(q.observed + q.filled) / len;
  const double observed_frac = static_cast<double>(q.observed) / len;
  // A plateau of 1 is no plateau: only the excess run length penalizes,
  // so a clean window of distinct values scores exactly 1.
  const std::size_t excess = q.longest_plateau > 0 ? q.longest_plateau - 1 : 0;
  const double plateau_ratio = static_cast<double>(excess) / len;
  const double base = 0.5 * (completeness + observed_frac);
  const double score = base * (1.0 - 0.5 * plateau_ratio) * (1.0 - 0.25 * q.intermittency);
  return std::clamp(score, 0.0, 1.0);
}

namespace {

// A QualityTracker flags byte: the cell's kind in bits 0–1 (a gap is
// both bits), and kNewValue when its value differs from the previous
// cell's (or there is none). Gap runs and plateaus follow from
// neighbouring cells: a cell opens a gap run when it is a gap and the
// previous cell is not, and a plateau cell is one with kNewValue clear or
// followed by one with kNewValue clear.
constexpr std::uint8_t kObserved = 0;
constexpr std::uint8_t kObservedZero = 1;  ///< observed and == 0.0
constexpr std::uint8_t kFilledCell = 2;    ///< forward-filled
constexpr std::uint8_t kGap = 3;
constexpr std::uint8_t kKindBits = 3;
constexpr std::uint8_t kNewValue = 4;
constexpr std::uint64_t kEachByte = 0x0101010101010101ULL;

/// The completed-run ring's capacity: the most runs it can hold. They
/// have distinct lengths of at least two and all but the first lie
/// wholly in the window, beside at least one cell of the first and the
/// newest cell, so m runs take at least m(m+1)/2 + 1 cells.
std::size_t RingCapacity(std::size_t window) {
  std::size_t m = 1;
  while ((m + 1) * (m + 2) / 2 + 1 <= window) ++m;
  return m;
}

/// Bit 0 of each byte: the byte's cell is of kind `kind`.
inline std::uint64_t KindBits(std::uint64_t cells, std::uint8_t kind) {
  const std::uint64_t low = (kind & 1) != 0 ? cells : ~cells;
  const std::uint64_t high = (kind & 2) != 0 ? cells >> 1 : ~(cells >> 1);
  return low & high & kEachByte;
}

/// `lanes` (≤ 8) bytes as one word, byte i at bits [8i, 8i + 8).
inline std::uint64_t LoadBytes(const std::uint8_t* p, std::size_t lanes) {
  std::uint64_t word = 0;
  if (lanes == 8 && std::endian::native == std::endian::little) {
    std::memcpy(&word, p, 8);
  } else {
    for (std::size_t i = 0; i < lanes; ++i) word |= std::uint64_t{p[i]} << (8 * i);
  }
  return word;
}

/// Stores the low `lanes` bytes of `word` (byte i from bits [8i, 8i + 8)).
inline void StoreBytes(std::uint8_t* p, std::size_t lanes, std::uint64_t word) {
  if (lanes == 8 && std::endian::native == std::endian::little) {
    std::memcpy(p, &word, 8);
  } else {
    for (std::size_t i = 0; i < lanes; ++i) p[i] = static_cast<std::uint8_t>(word >> (8 * i));
  }
}

/// Bit 0 of each byte is set iff that byte of `x` is non-zero (each fold
/// moves only the byte's own bits toward bit 0).
inline std::uint64_t NonZeroBytes(std::uint64_t x) {
  x |= x >> 4;
  x |= x >> 2;
  x |= x >> 1;
  return x & kEachByte;
}

/// Bit 0 of each byte: the byte's cell is a gap.
inline std::uint64_t GapBits(std::uint64_t cells) { return cells & (cells >> 1) & kEachByte; }

/// Bit 0 of each byte: the byte's cell carries kNewValue.
inline std::uint64_t NewValueBits(std::uint64_t cells) { return (cells >> 2) & kEachByte; }

}  // namespace

QualityTracker::RunWindow::RunWindow(std::size_t n, std::size_t window)
    : window_(window), cap_(RingCapacity(window)), state_(n), done_(n * cap_) {}

AFFINITY_HOT void QualityTracker::RunWindow::Open(std::size_t j, std::uint64_t index) {
  State& s = state_[j];
  ++s.runs;
  s.open = index;
}

AFFINITY_HOT void QualityTracker::RunWindow::Close(std::size_t j, std::uint64_t index,
                                                   std::size_t end) {
  State& s = state_[j];
  // A run of one never outgrows the floor of one that any run sets.
  if (index - s.open < 2) return;
  const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(index - s.open, window_));
  Done* ring = done_.data() + j * cap_;
  // A run at least as long as an earlier one outlives it in the window,
  // so the earlier one can never be the longest again.
  std::size_t count = s.count;
  while (count > 0) {
    std::size_t back = s.head + count - 1;
    if (back >= cap_) back -= cap_;
    if (ring[back].len > len) break;
    --count;
  }
  AFFINITY_CHECK_LT(count, cap_);
  std::size_t at = s.head + count;
  if (at >= cap_) at -= cap_;
  ring[at] = Done{static_cast<std::uint32_t>(end), len};
  s.count = static_cast<std::uint32_t>(count + 1);
}

AFFINITY_HOT void QualityTracker::RunWindow::Drop(std::size_t j, std::size_t row) {
  State& s = state_[j];
  --s.runs;
  if (s.count > 0 && done_[j * cap_ + s.head].end == row) {
    if (++s.head == cap_) s.head = 0;
    --s.count;
  }
}

std::uint32_t QualityTracker::RunWindow::longest(std::size_t j, std::size_t oldest,
                                                 std::size_t size, std::uint64_t open) const {
  const State& s = state_[j];
  std::uint64_t best = std::min<std::uint64_t>(s.runs, 1);
  best = std::max<std::uint64_t>(best, std::min<std::uint64_t>(open, size));
  if (s.count > 0) {
    const Done* ring = done_.data() + j * cap_;
    const Done& first = ring[s.head];
    const std::size_t reach =
        (first.end >= oldest ? first.end - oldest : first.end + window_ - oldest) + 1;
    best = std::max<std::uint64_t>(best, std::min<std::size_t>(first.len, reach));
    if (s.count > 1) best = std::max<std::uint64_t>(best, ring[(s.head + 1) % cap_].len);
  }
  return static_cast<std::uint32_t>(best);
}

QualityTracker::QualityTracker(std::size_t n, std::size_t window)
    : n_(n),
      window_(window),
      flags_(n * window, 0),
      fresh_(n, 0),
      last_(n, 0.0),
      counts_(4 * n, 0),
      pending_(4 * ((n + 7) / 8), kEachByte * kPendingZero),
      gap_runs_(n, window),
      plateaus_(n, window) {
  AFFINITY_CHECK(n > 0 && window > 0);
  AFFINITY_CHECK_LE(window, std::size_t{0xffffffffu});
}

AFFINITY_HOT void QualityTracker::Push(const double* values, const std::uint8_t* valid,
                                       const std::uint8_t* filled) {
  const bool full = size_ == window_;
  // After the eviction the window holds no earlier cell.
  const bool first = size_ == 0 || (full && window_ == 1);
  const std::size_t n = n_;
  const std::size_t head = head_;
  const std::size_t next = head + 1 == window_ ? 0 : head + 1;
  const std::size_t prev_row = head == 0 ? window_ - 1 : head - 1;
  std::uint8_t* const row = flags_.data() + head * n;
  const std::uint8_t* const prev = flags_.data() + prev_row * n;
  const std::uint8_t* const after = flags_.data() + next * n;
  std::uint8_t* const fresh = fresh_.data();
  double* const last = last_.data();

  // The new cells, staged beside the ring row they replace: first each
  // value's own bits (zero; differs from the last one), then the masks,
  // eight series a word.
  for (std::size_t j = 0; j < n; ++j) {
    const double v = values[j];
    const std::uint32_t differs = first || !(v == last[j]) ? 1 : 0;
    fresh[j] = static_cast<std::uint8_t>((v == 0.0 ? kObservedZero : 0) | differs * kNewValue);
    last[j] = v;
  }
  if (valid != nullptr || filled != nullptr) {
    for (std::size_t base = 0; base < n; base += 8) {
      const std::size_t lanes = std::min<std::size_t>(8, n - base);
      const std::uint64_t ok =
          valid == nullptr ? kEachByte : NonZeroBytes(LoadBytes(valid + base, lanes));
      const std::uint64_t fill =
          filled == nullptr ? 0 : NonZeroBytes(LoadBytes(filled + base, lanes)) & ok;
      const std::uint64_t cells = LoadBytes(fresh + base, lanes);
      // Observed cells keep their zero bit; fills and gaps take their kind.
      const std::uint64_t zero = cells & (ok & ~fill) & kEachByte;
      const std::uint64_t kinds = zero | (fill * kFilledCell) | ((~ok & kEachByte) * kGap);
      StoreBytes(fresh + base, lanes, (cells & (kEachByte * kNewValue)) | kinds);
    }
  }

  // Counts move where a cell's kind changes; runs at run boundaries. Both
  // are found eight series a word. A gap run opens at a gap after a
  // non-gap (or none) and closes at the first non-gap; a plateau opens at
  // a repeat of a new value and closes at the next new value. An evicted
  // cell is its run's last in the window when the cell after it does not
  // continue the run.
  const std::uint64_t index = pushes_;
  const std::size_t words = (n + 7) / 8;
  std::uint64_t* const pending = pending_.data();
  for (std::size_t base = 0; base < n; base += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, n - base);
    const std::uint64_t live =
        lanes == 8 ? kEachByte : kEachByte & ((std::uint64_t{1} << (8 * lanes)) - 1);
    const std::uint64_t now = LoadBytes(fresh + base, lanes);
    const std::uint64_t old = full ? LoadBytes(row + base, lanes) : 0;
    // Each byte of a pending word counts one series' cells of one kind,
    // offset by kPendingZero; a push moves it by at most one. A word
    // whose kinds all stay as they were is left alone.
    // (One add per word is exact: every byte of the sum stays in range.)
    if (!full || ((old ^ now) & (kEachByte * kKindBits)) != 0) {
      std::uint64_t* const word = pending + base / 8;
      for (std::uint8_t kind = 0; kind < 4; ++kind) {
        const std::uint64_t left = full ? KindBits(old, kind) & live : 0;
        word[kind * words] += (KindBits(now, kind) & live) - left;
      }
    }
    std::uint64_t gap_drop = 0;
    std::uint64_t plateau_drop = 0;
    if (full) {
      if (window_ == 1) {
        gap_drop = GapBits(old);
      } else {
        const std::uint64_t next_cells = LoadBytes(after + base, lanes);
        gap_drop = GapBits(old) & ~GapBits(next_cells);
        plateau_drop = ~NewValueBits(old) & NewValueBits(next_cells) & kEachByte;
      }
    }
    std::uint64_t gap_close = 0;
    std::uint64_t plateau_close = 0;
    std::uint64_t gap_open = GapBits(now);
    std::uint64_t plateau_open = 0;
    if (!first) {
      const std::uint64_t before = LoadBytes(prev + base, lanes);
      gap_close = GapBits(before) & ~GapBits(now);
      gap_open &= ~GapBits(before);
      plateau_close = ~NewValueBits(before) & NewValueBits(now) & kEachByte;
      plateau_open = NewValueBits(before) & ~NewValueBits(now) & kEachByte;
    }
    for (std::uint64_t m = (gap_drop | gap_close | gap_open) & live; m != 0; m &= m - 1) {
      const int bit = std::countr_zero(m);
      const std::size_t j = base + static_cast<std::size_t>(bit >> 3);
      if ((gap_drop >> bit) & 1) gap_runs_.Drop(j, head);
      if ((gap_close >> bit) & 1) gap_runs_.Close(j, index, prev_row);
      if ((gap_open >> bit) & 1) gap_runs_.Open(j, index);
    }
    for (std::uint64_t m = (plateau_drop | plateau_close | plateau_open) & live; m != 0;
         m &= m - 1) {
      const int bit = std::countr_zero(m);
      const std::size_t j = base + static_cast<std::size_t>(bit >> 3);
      if ((plateau_drop >> bit) & 1) plateaus_.Drop(j, head);
      if ((plateau_close >> bit) & 1) plateaus_.Close(j, index, prev_row);
      // A plateau found at its second cell began at the previous one.
      if ((plateau_open >> bit) & 1) plateaus_.Open(j, index - 1);
    }
  }
  std::memcpy(row, fresh, n);
  // Fold the pending counts before a byte could leave [0, 255].
  if (++pending_pushes_ == kPendingZero - 1) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::uint8_t kind = 0; kind < 4; ++kind) {
        counts_[kind * n + j] += PendingCount(kind, j);
      }
    }
    std::fill(pending_.begin(), pending_.end(), kEachByte * kPendingZero);
    pending_pushes_ = 0;
  }
  head_ = next;
  ++pushes_;
  if (!full) ++size_;
  cache_fresh_ = false;
}

std::int32_t QualityTracker::PendingCount(std::uint8_t kind, std::size_t j) const {
  const std::uint64_t word = pending_[kind * ((n_ + 7) / 8) + j / 8];
  return static_cast<std::int32_t>((word >> (8 * (j % 8))) & 0xff) - kPendingZero;
}

SeriesQuality QualityTracker::Quality(SeriesId series) const {
  AFFINITY_CHECK_LT(series, n_);
  const std::size_t j = series;
  SeriesQuality q;
  q.length = size_;
  if (size_ == 0) return q;
  const auto count = [&](std::uint8_t kind) -> std::size_t {
    return static_cast<std::size_t>(counts_[kind * n_ + j] + PendingCount(kind, j));
  };
  const std::size_t zeros = count(kObservedZero);
  q.observed = count(kObserved) + zeros;
  q.filled = count(kFilledCell);
  q.gaps = count(kGap);
  // The open runs end at the newest cell.
  const std::uint8_t newest = flags_[(head_ == 0 ? window_ - 1 : head_ - 1) * n_ + j];
  const std::size_t oldest = size_ < window_ ? 0 : head_;
  const std::uint64_t open_gap =
      (newest & kKindBits) == kGap ? pushes_ - gap_runs_.open_index(j) : 0;
  const std::uint64_t open_plateau =
      (newest & kNewValue) == 0 ? pushes_ - plateaus_.open_index(j) : 0;
  q.gap_runs = gap_runs_.runs(j);
  q.longest_gap = gap_runs_.longest(j, oldest, size_, open_gap);
  // A cell outside every plateau of two or more is a plateau of one.
  q.longest_plateau = std::max<std::size_t>(1, plateaus_.longest(j, oldest, size_, open_plateau));
  const double len = static_cast<double>(q.length);
  q.gap_ratio = static_cast<double>(q.gaps) / len;
  q.fill_ratio = static_cast<double>(q.filled) / len;
  q.intermittency =
      q.observed == 0 ? 0.0 : static_cast<double>(zeros) / static_cast<double>(q.observed);
  q.score = CompositeQualityScore(q);
  return q;
}

const std::vector<SeriesQuality>& QualityTracker::All() const {
  if (!cache_fresh_) {
    cache_.resize(n_);
    scores_.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      cache_[j] = Quality(static_cast<SeriesId>(j));
      scores_[j] = cache_[j].score;
    }
    cache_fresh_ = true;
  }
  return cache_;
}

const std::vector<double>& QualityTracker::Scores() const {
  All();
  return scores_;
}

}  // namespace affinity::ts
