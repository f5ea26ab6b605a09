#include "events.hpp"

namespace fix {

void compose(Stack& stack, Codec& codec) {
  stack.bind(kEvTick, [&codec](const Event& ev) { codec.tick(ev); });
  stack.bind_wire(kModCodec,
                  [&codec](ProcessId from, Payload msg) { codec.on_wire(msg); });
}

void drive(Stack& stack, Codec& codec) {
  stack.raise(Event::local(kEvTick, TickBody{}));
  stack.raise(Event::local(kEvOrphan, OrphanBody{}));
  stack.raise(Event::local(kEvApp, AppBody{}));
  ByteWriter w;
  codec.encode_used(w);
  stack.send_wire(1, kModCodec, w.take());
  ByteWriter v;
  codec.encode_orphan(v);
  stack.send_wire(2, kModGhost, v.take());
}

}  // namespace fix
