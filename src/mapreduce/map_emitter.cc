#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

#include "src/mapreduce/job.h"
#include "src/obs/trace.h"

namespace mrtheta {

CombineFn MakeDedupCombiner() {
  return [](std::vector<MapOutputRecord>& records) {
    // Order-preserving first-occurrence scan. Row slices are small (a few
    // records), so the quadratic scan beats hashing — and preserving emit
    // order is what keeps duplicate-free runs byte-identical.
    size_t out = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const MapOutputRecord& r = records[i];
      bool duplicate = false;
      for (size_t j = 0; j < out && !duplicate; ++j) {
        const MapOutputRecord& k = records[j];
        duplicate = k.key == r.key && k.tag == r.tag && k.row == r.row &&
                    k.rec_id == r.rec_id && k.bytes == r.bytes;
      }
      if (!duplicate) records[out++] = r;
    }
    records.resize(out);
  };
}

MapEmitter& MapEmitter::operator=(MapEmitter&& other) noexcept {
  if (this != &other) {
    Clear();  // return our pages to the budget before adopting other's
    pages_ = std::move(other.pages_);
    last_page_records_ = other.last_page_records_;
    size_ = other.size_;
    spilled_records_ = other.spilled_records_;
    row_mark_ = other.row_mark_;
    status_ = std::move(other.status_);
    partition_ = std::move(other.partition_);
    num_reduce_tasks_ = other.num_reduce_tasks_;
    combine_ = std::move(other.combine_);
    combine_buf_ = std::move(other.combine_buf_);
    spill_limit_bytes_ = other.spill_limit_bytes_;
    spill_dir_ = other.spill_dir_;
    spill_file_ = std::move(other.spill_file_);
    spilled_bytes_ = other.spilled_bytes_;
    other.pages_.clear();
    other.last_page_records_ = 0;
    other.size_ = 0;
    other.spilled_records_ = 0;
    other.row_mark_ = 0;
    other.spill_file_.reset();
    other.spilled_bytes_ = 0;
  }
  return *this;
}

void MapEmitter::Reserve(size_t records) {
  if (!status_.ok()) return;
  try {
    pages_.reserve(records / static_cast<size_t>(kRecordsPerPage) + 1);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted(
        "map emit reservation for " + std::to_string(records) +
        " records failed");
  } catch (const std::length_error&) {
    status_ = Status::ResourceExhausted(
        "map emit reservation for " + std::to_string(records) +
        " records exceeds the page table's limit");
  }
}

bool MapEmitter::AddPage() {
  StatusOr<MemoryBudget::PagePtr> page = MemoryBudget::Global().AcquirePage();
  if (!page.ok()) {
    status_ = page.status();
    return false;
  }
  try {
    pages_.push_back(*std::move(page));
  } catch (const std::bad_alloc&) {
    MemoryBudget::Global().ReleasePage(*std::move(page));
    status_ = Status::ResourceExhausted("map emit page table growth failed");
    return false;
  }
  last_page_records_ = 0;
  return true;
}

void MapEmitter::EndRow() {
  if (!status_.ok()) return;
  if (combine_ && size_ > row_mark_) ApplyCombine();
  if (status_.ok() && spill_dir_ != nullptr &&
      MemoryBudget::Global().OverBudget(spill_limit_bytes_)) {
    SpillFullPages();
  }
  row_mark_ = size_;
}

void MapEmitter::ApplyCombine() {
  // The row's slice is entirely in memory: spills happen only at row
  // boundaries, so spilled_records_ <= row_mark_ always holds.
  const int64_t begin_mem = row_mark_ - spilled_records_;
  const int64_t end_mem = size_ - spilled_records_;
  combine_buf_.clear();
  try {
    combine_buf_.reserve(static_cast<size_t>(end_mem - begin_mem));
    for (int64_t i = begin_mem; i < end_mem; ++i) {
      combine_buf_.push_back(
          PageRecords(pages_[i / kRecordsPerPage])[i % kRecordsPerPage]);
    }
    combine_(combine_buf_);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("map-side combine buffer failed");
    return;
  }
  // Truncate the in-memory tail back to the row start (a full trailing
  // page counts as "kept" so Emit's all-but-last-full invariant holds)...
  const size_t keep_pages = static_cast<size_t>(
      (begin_mem + kRecordsPerPage - 1) / kRecordsPerPage);
  while (pages_.size() > keep_pages) {
    MemoryBudget::Global().ReleasePage(std::move(pages_.back()));
    pages_.pop_back();
  }
  last_page_records_ =
      pages_.empty() ? 0
                     : begin_mem - static_cast<int64_t>(pages_.size() - 1) *
                                       kRecordsPerPage;
  size_ = row_mark_;
  // ...and re-append the combined records. Re-partitioned through Emit so
  // a combiner that rewrites keys cannot leave stale targets behind.
  for (const MapOutputRecord& rec : combine_buf_) {
    Emit(rec.key, rec.tag, rec.row, rec.rec_id, rec.bytes);
  }
  combine_buf_.clear();
}

void MapEmitter::SpillFullPages() {
  // Full pages are everything except a trailing partial page. Spilling
  // whole pages at a row boundary can never split a combine slice.
  size_t full = pages_.size();
  if (full > 0 && last_page_records_ < kRecordsPerPage) --full;
  if (full == 0) return;
  if (!spill_file_.has_value()) {
    StatusOr<SpillFile> file = SpillFile::Create(*spill_dir_);
    if (!file.ok()) {
      status_ = file.status();
      return;
    }
    spill_file_ = *std::move(file);
  }
  TraceSpan span("spill-write", "mem");
  int64_t flushed = 0;
  for (size_t i = 0; i < full; ++i) {
    const int64_t bytes =
        kRecordsPerPage * static_cast<int64_t>(sizeof(MapOutputRecord));
    Status s = spill_file_->Append(pages_[i].get(), bytes);
    if (!s.ok()) {
      status_ = std::move(s);
      break;
    }
    flushed += bytes;
    spilled_records_ += kRecordsPerPage;
    MemoryBudget::Global().ReleasePage(std::move(pages_[i]));
  }
  spilled_bytes_ += flushed;
  if (span.enabled()) span.Arg("bytes", flushed);
  // Drop the flushed prefix (pages_[i] are null up to the failure point).
  size_t kept = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (pages_[i] != nullptr) pages_[kept++] = std::move(pages_[i]);
  }
  pages_.resize(kept);
  if (pages_.empty()) last_page_records_ = 0;
}

Status MapEmitter::Drain(
    const std::function<void(const MapOutputRecord&)>& fn) {
  Status status = Walk(fn);
  Clear();
  return status;
}

Status MapEmitter::Walk(
    const std::function<void(const MapOutputRecord&)>& fn) {
  if (!status_.ok()) return status_;
  if (spill_file_.has_value()) {
    MRTHETA_RETURN_IF_ERROR(spill_file_->Finish());
    StatusOr<SpillFile::Reader> reader =
        spill_file_->OpenReader(0, spill_file_->bytes_written());
    if (!reader.ok()) return reader.status();
    MapOutputRecord buffer[512];
    for (;;) {
      StatusOr<int64_t> got =
          reader->Read(buffer, static_cast<int64_t>(sizeof(buffer)));
      if (!got.ok()) return got.status();
      if (*got == 0) break;
      const int64_t count =
          *got / static_cast<int64_t>(sizeof(MapOutputRecord));
      for (int64_t i = 0; i < count; ++i) fn(buffer[i]);
    }
  }
  for (size_t p = 0; p < pages_.size(); ++p) {
    const int64_t count =
        p + 1 == pages_.size() ? last_page_records_ : kRecordsPerPage;
    const MapOutputRecord* recs = PageRecords(pages_[p]);
    for (int64_t i = 0; i < count; ++i) fn(recs[i]);
    MemoryBudget::Global().ReleasePage(std::move(pages_[p]));
  }
  return Status::OK();
}

void MapEmitter::Clear() {
  for (MemoryBudget::PagePtr& page : pages_) {
    MemoryBudget::Global().ReleasePage(std::move(page));
  }
  pages_.clear();
  last_page_records_ = 0;
  size_ = 0;
  spilled_records_ = 0;
  row_mark_ = 0;
  status_ = Status::OK();
  partition_ = nullptr;
  num_reduce_tasks_ = 0;
  combine_ = nullptr;
  combine_buf_.clear();
  spill_limit_bytes_ = 0;
  spill_dir_ = nullptr;
  spill_file_.reset();
  spilled_bytes_ = 0;
}

}  // namespace mrtheta
