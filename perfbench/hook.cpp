#include "hook.hpp"

#include <utility>

#include "sim/engine.hpp"

namespace perfbench {

EngineHook& engine_hook() {
  static EngineHook hook;
  return hook;
}

}  // namespace perfbench

// --wrap=<run_task>: the linker routes every call to run_task here and the
// original definition to __real_<run_task>.
void real_run_task(sgfs::sim::Engine* self, sgfs::sim::Task<void> task) __asm__(
    "__real__ZN4sgfs3sim6Engine8run_taskENS0_4TaskIvEE");
void wrap_run_task(sgfs::sim::Engine* self, sgfs::sim::Task<void> task) __asm__(
    "__wrap__ZN4sgfs3sim6Engine8run_taskENS0_4TaskIvEE");

void wrap_run_task(sgfs::sim::Engine* self, sgfs::sim::Task<void> task) {
  perfbench::EngineHook& hook = perfbench::engine_hook();
  if (!hook.entered) {
    hook.entered = true;
    hook.first_entry = perfbench::EngineHook::Clock::now();
  }
  real_run_task(self, std::move(task));
  if (hook.snapshot) hook.last = self->metrics().snapshot();
}
