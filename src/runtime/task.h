// Task abstraction for the work-stealing runtime.
//
// Tasks model stealable units of fork-join work: task_group's spawned
// callables (loops publish range spans instead, runtime/range_slot.h).
// Ownership: whoever executes a task deletes it (tasks migrate between
// workers via steals, so deletion cannot be tied to the allocating worker).
#pragma once

namespace hls::rt {

class worker;

class task {
 public:
  virtual ~task() = default;

  // Runs the task on worker w. The caller deletes the task afterwards.
  virtual void execute(worker& w) = 0;
};

}  // namespace hls::rt
