#include "framework/stack.hpp"

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace modcast::framework {

Stack::Stack(runtime::Runtime& rt, util::Duration crossing_cost)
    : rt_(&rt), crossing_cost_(crossing_cost) {}

void Stack::add(Module& module) {
  modules_.push_back(&module);
  module.init(*this);
}

void Stack::bind(EventType type, EventHandler handler) {
  if (bindings_.size() <= type) bindings_.resize(type + 1);
  bindings_[type].push_back(std::move(handler));
}

void Stack::bind_wire(ModuleId module_id, WireHandler handler) {
  wire_bindings_[module_id] = std::move(handler);
}

void Stack::raise(Event event) {
  if (event.type >= bindings_.size() || bindings_[event.type].empty()) return;
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kLocalEvent,
                        event.type, util::kInvalidProcess, 0,
                        trace_ctx_.instance, trace_ctx_.app_bytes,
                        trace_ctx_.flags});
  }
  for (auto& handler : bindings_[event.type]) {
    ++counters_.local_events;
    if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
    handler(event);
  }
}

util::Payload Stack::frame(ModuleId module_id,
                           const util::Payload& payload) {
  util::ByteWriter w(payload.size() + 1);
  w.u8(module_id);
  w.raw(payload);
  return util::Payload(w.take());
}

util::Payload Stack::frame(ModuleId module_id, util::Bytes body) {
  // A retained view pins its buffer's whole capacity, so a writer that left
  // no spare byte gets exactly one more instead of a doubled buffer.
  if (body.size() == body.capacity()) body.reserve(body.size() + 1);
  body.insert(body.begin(), module_id);
  return util::Payload(std::move(body));
}

void Stack::send_framed(util::ProcessId to, ModuleId module_id,
                        const util::Payload& framed) {
  const std::size_t payload_size = framed.size() - 1;
  ++counters_.wire_sends;
  auto& wc = wire_counters_[module_id];
  ++wc.messages_sent;
  wc.bytes_sent += framed.size();
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kWireSend,
                        module_id, to, payload_size, trace_ctx_.instance,
                        trace_ctx_.app_bytes, trace_ctx_.flags});
  }
  if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
  rt_->send(to, framed);
}

void Stack::send_wire(util::ProcessId to, ModuleId module_id,
                      util::Bytes body) {
  send_framed(to, module_id, frame(module_id, std::move(body)));
}

const ModuleWireCounters& Stack::wire_counters(ModuleId module_id) const {
  return wire_counters_[module_id];
}

void Stack::reset_wire_counters() {
  wire_counters_.fill(ModuleWireCounters{});
}

util::Payload Stack::send_wire_to_others(ModuleId module_id,
                                         const util::Payload& payload) {
  return send_framed_to_others(module_id, frame(module_id, payload));
}

util::Payload Stack::send_wire_to_others(ModuleId module_id,
                                         util::Bytes body) {
  return send_framed_to_others(module_id, frame(module_id, std::move(body)));
}

util::Payload Stack::send_framed_to_others(ModuleId module_id,
                                           const util::Payload& framed) {
  const auto n = static_cast<util::ProcessId>(rt_->group_size());
  // One serialization; every destination shares the ref-counted frame.
  for (util::ProcessId p = 0; p < n; ++p) {
    if (p != rt_->self()) send_framed(p, module_id, framed);
  }
  return framed.slice(1);
}

void Stack::start() {
  for (Module* m : modules_) m->start();
}

void Stack::on_message(util::ProcessId from, util::Payload msg) {
  if (msg.empty()) {
    MODCAST_WARN("stack: dropped empty message");
    return;
  }
  const ModuleId module_id = msg[0];
  auto& handler = wire_bindings_[module_id];
  if (!handler) {
    MODCAST_WARN("stack: no module bound for wire id " +
                 std::to_string(module_id));
    return;
  }
  ++counters_.wire_deliveries;
  ++wire_counters_[module_id].messages_received;
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kWireDeliver,
                        module_id, from, msg.size() - 1});
  }
  if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
  // Zero-copy header strip: the handler sees a narrower view of the same
  // buffer.
  handler(from, msg.slice(1));
}

}  // namespace modcast::framework
