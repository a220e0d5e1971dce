#include "obs/chrome_sink.hpp"

#include "io/file.hpp"

namespace relb::obs {

ChromeTraceSink::ChromeTraceSink(std::filesystem::path path)
    : path_(std::move(path)) {}

void ChromeTraceSink::consume(const TraceEvent& event) {
  std::lock_guard lock(mutex_);
  events_.push_back(event);
}

io::Json ChromeTraceSink::toJson() const {
  io::Json traceEvents = io::Json::array();
  std::lock_guard lock(mutex_);
  for (const TraceEvent& event : events_) {
    io::Json e = io::Json::object();
    e.set("name", event.name);
    e.set("cat", "relb");
    switch (event.kind) {
      case TraceEvent::Kind::kSpan:
        e.set("ph", "X");
        e.set("dur", event.durationMicros);
        break;
      case TraceEvent::Kind::kCounter:
        e.set("ph", "C");
        break;
      case TraceEvent::Kind::kInstant:
        e.set("ph", "i");
        e.set("s", "t");
        break;
    }
    e.set("ts", event.startMicros);
    e.set("pid", 1);
    e.set("tid", event.threadId);
    if (event.kind == TraceEvent::Kind::kCounter) {
      io::Json args = io::Json::object();
      args.set("value", event.value);
      e.set("args", std::move(args));
    }
    traceEvents.push(std::move(e));
  }
  io::Json out = io::Json::object();
  out.set("traceEvents", std::move(traceEvents));
  out.set("displayTimeUnit", "ms");
  return out;
}

void ChromeTraceSink::flush() {
  io::atomicWriteFile(path_, toJson().dump());
}

}  // namespace relb::obs
