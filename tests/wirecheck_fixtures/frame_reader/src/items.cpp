// Decode helpers that take (frame, reader): the payload is a slice of the
// frame, not a copy.
#include <cstdint>
#include <vector>

namespace fix {

constexpr std::uint8_t kItem = 1;
constexpr std::uint8_t kBundle = 2;
constexpr std::uint8_t kMixed = 3;

struct Item {
  std::uint32_t id = 0;
  Payload body;
};

void encode_item(ByteWriter& w, const Item& item) {
  w.u32(item.id);
  w.blob(item.body);
}

Item decode_item(const Payload& frame, ByteReader& r) {
  Item item;
  item.id = r.u32();
  const std::uint32_t len = r.u32();
  item.body = frame.slice(r.position(), len);
  r.skip(len);
  return item;
}

void encode_bundle(ByteWriter& w, const std::vector<Item>& items) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const Item& item : items) encode_item(w, item);
}

std::vector<Item> decode_bundle(const Payload& frame, ByteReader& r) {
  const std::uint32_t count = r.u32();
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < count; ++i) {
    items.push_back(decode_item(frame, r));
  }
  return items;
}

struct Node {
  void send(const Item& item, const std::vector<Item>& items) {
    ByteWriter w;
    w.u8(kItem);
    encode_item(w, item);
    out(w.take());
    ByteWriter b;
    b.u8(kBundle);
    encode_bundle(b, items);
    out(b.take());
    ByteWriter m;
    m.u8(kMixed);
    encode_item(m, item);
    out(m.take());
  }

  void on_wire(Payload msg) {
    ByteReader r(msg);
    switch (r.u8()) {
      case kItem:
        last_ = decode_item(msg, r);
        break;
      case kBundle:
        for (Item& item : decode_bundle(msg, r)) last_ = item;
        break;
      case kMixed:
        for (Item& item : decode_bundle(msg, r)) last_ = item;
        break;
      default:
        break;
    }
  }

  void out(Bytes frame);
  Item last_;
};

}  // namespace fix
