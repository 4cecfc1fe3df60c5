#include "pablo/collector.hpp"

#include <algorithm>
#include <utility>

#include "pablo/sddf.hpp"

namespace sio::pablo {

std::string Collector::sddf_text() const { return to_sddf_string(*this); }

FileId Collector::register_file(std::string_view path) {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i] == path) return static_cast<FileId>(i);
  }
  files_.emplace_back(path);
  const auto id = static_cast<FileId>(files_.size() - 1);
  if (streaming_) streaming_->ensure_file(id);
  if (bin_writer_) bin_writer_->add_file(files_.back());
  return id;
}

const std::vector<TraceEvent>& Collector::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(), trace_event_before);
    sorted_ = true;
  }
  return events_;
}

TraceFile Collector::take_trace() {
  TraceFile tf;
  events();  // sort before handing over
  tf.file_names = std::move(files_);
  tf.events = std::move(events_);
  tf.faults = std::move(faults_);
  tf.qos = std::move(qos_);
  tf.losses = std::move(losses_);
  tf.integrity = std::move(integrity_);
  tf.spans = std::move(spans_);
  files_.clear();
  clear();
  return tf;
}

std::size_t Collector::bytes_retained() const {
  std::size_t total = sizeof(*this);
  total += files_.capacity() * sizeof(std::string);
  for (const std::string& f : files_) total += f.capacity();
  total += events_.capacity() * sizeof(TraceEvent);
  total += faults_.capacity() * sizeof(FaultEvent);
  total += qos_.capacity() * sizeof(QosEvent);
  total += losses_.capacity() * sizeof(LossEvent);
  total += integrity_.capacity() * sizeof(IntegrityEvent);
  total += spans_.capacity() * sizeof(SpanEvent);
  if (tracer_) total += tracer_->bytes_retained();
  if (streaming_) total += streaming_->bytes_retained();
  if (bin_writer_) total += bin_writer_->buffered_capacity();
  return total;
}

void Collector::note_peak() const {
  peak_bytes_retained_ = std::max(peak_bytes_retained_, bytes_retained());
}

}  // namespace sio::pablo
