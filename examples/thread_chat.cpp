// Totally-ordered chat room on REAL threads (runtime/thread_world).
//
// The other examples run on the deterministic simulator; this one runs the
// identical protocol stacks on OS threads with wall-clock timers, proving
// the library is runtime-agnostic. Three members post concurrently from
// their own threads; atomic broadcast gives every member the exact same
// transcript.
//
//   $ ./thread_chat [--kind=monolithic|modular]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/abcast_process.hpp"
#include "runtime/thread_world.hpp"
#include "util/flags.hpp"

using namespace modcast;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"kind"});
  const std::string kind = flags.get("kind", "monolithic");

  constexpr std::size_t kMembers = 3;
  const char* names[kMembers] = {"ada", "bob", "eve"};

  runtime::ThreadWorld world(kMembers);
  std::vector<std::unique_ptr<core::AbcastProcess>> procs;
  std::mutex mu;
  std::vector<std::vector<std::string>> transcripts(kMembers);

  for (util::ProcessId p = 0; p < kMembers; ++p) {
    core::StackOptions opts;
    opts.kind = (kind == "modular") ? core::StackKind::kModular
                                    : core::StackKind::kMonolithic;
    opts.fd.heartbeat_interval = util::milliseconds(20);
    opts.fd.timeout = util::milliseconds(200);
    opts.liveness_timeout = util::milliseconds(100);
    procs.push_back(
        std::make_unique<core::AbcastProcess>(world.runtime(p), opts));
    procs[p]->set_deliver_handler([&, p](util::ProcessId origin,
                                         std::uint64_t,
                                         const util::Bytes& payload) {
      std::lock_guard lock(mu);
      transcripts[p].emplace_back(
          std::string(names[origin]) + ": " +
          std::string(payload.begin(), payload.end()));
    });
    world.attach(p, &procs[p]->protocol());
  }
  world.start();

  const char* lines[] = {"hi all",       "anyone here?", "yes!",
                         "who ordered?", "consensus did", "nice"};
  // Each member posts from its own application thread, concurrently. The
  // call runs on the member's process thread: calling abcast() from another
  // thread would race with the stack.
  std::vector<std::thread> posters;
  for (util::ProcessId p = 0; p < kMembers; ++p) {
    posters.emplace_back([&, p] {
      for (int i = 0; i < 2; ++i) {
        const char* text = lines[(p * 2 + i) % 6];
        world.post(p, [&procs, p, text] {
          procs[p]->abcast(util::Bytes(text, text + std::strlen(text)));
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }
  for (auto& t : posters) t.join();

  // Wait for everyone to see all 6 messages.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      std::lock_guard lock(mu);
      bool done = true;
      for (auto& t : transcripts) done &= (t.size() == 6);
      if (done) break;
    }
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  world.stop();

  std::printf("chat over the %s stack, real threads:\n\n", kind.c_str());
  bool identical = true;
  {
    std::lock_guard lock(mu);
    for (std::size_t i = 0; i < transcripts[0].size(); ++i) {
      std::printf("  %zu. %s\n", i + 1, transcripts[0][i].c_str());
    }
    for (util::ProcessId p = 1; p < kMembers; ++p) {
      identical &= (transcripts[p] == transcripts[0]);
    }
  }
  std::printf("\nall %zu members saw the identical transcript: %s\n",
              kMembers, identical ? "YES" : "NO (bug!)");
  return identical ? 0 : 1;
}
