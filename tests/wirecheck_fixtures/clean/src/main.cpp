// Composition: every raised event and sent module id has a handler; kEvApp
// is raised for harness code outside the tree (application-facing).
#include "events.hpp"

namespace fix {

void compose(Stack& stack, Codec& codec) {
  stack.bind(kEvTick, [&codec](const Event& ev) { codec.tick(ev); });
  stack.bind_wire(kModCodec,
                  [&codec](ProcessId from, Payload msg) { codec.on_wire(msg); });
}

void drive(Stack& stack, Codec& codec) {
  stack.raise(Event::local(kEvTick, TickBody{}));
  stack.raise(Event::local(kEvApp, AppBody{}));
  ByteWriter w;
  codec.encode_ping(w);
  stack.send_wire(1, kModCodec, w.take());
}

}  // namespace fix
