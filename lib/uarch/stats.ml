type t = {
  instructions : int;
  cycles : int;
  branch_mispredictions : int;
  l1i_misses : int;
  l2i_misses : int;
  short_data_misses : int;
  long_data_misses : int;
  dtlb_misses : int;
  mispredictions_under_long_miss : int;
  imisses_under_long_miss : int;
  window_at_branch_issue : float;
  rob_ahead_of_long_miss : float;
  mean_window_occupancy : float;
  mean_rob_occupancy : float;
}

type record = {
  fetch : int array;
  dispatch : int array;
  issue : int array;
  complete : int array;
  retire : int array;
  cluster : int array;
  mispredicted : bool array;
  icache_stall : int array;
}

let ipc t =
  if t.cycles = 0 then 0.0 else float_of_int t.instructions /. float_of_int t.cycles

let cpi t =
  if t.instructions = 0 then 0.0 else float_of_int t.cycles /. float_of_int t.instructions

let per_instruction count t =
  if t.instructions = 0 then 0.0 else float_of_int count /. float_of_int t.instructions

let pp fmt t =
  Format.fprintf fmt
    "@[<v>instructions      %d@,\
     cycles            %d@,\
     IPC               %.3f@,\
     mispredictions    %d (%.4f/instr)@,\
     L1I misses        %d@,\
     L2I misses        %d@,\
     short data misses %d@,\
     long data misses  %d (%.4f/instr)@,\
     dtlb misses       %d@,\
     mispred under long miss %d@,\
     imiss under long miss   %d@,\
     window @@ branch issue   %.2f@,\
     rob ahead of long miss  %.2f@,\
     mean window occupancy   %.2f@,\
     mean rob occupancy      %.2f@]"
    t.instructions t.cycles (ipc t) t.branch_mispredictions
    (per_instruction t.branch_mispredictions t)
    t.l1i_misses t.l2i_misses t.short_data_misses t.long_data_misses
    (per_instruction t.long_data_misses t)
    t.dtlb_misses
    t.mispredictions_under_long_miss t.imisses_under_long_miss
    t.window_at_branch_issue t.rob_ahead_of_long_miss t.mean_window_occupancy
    t.mean_rob_occupancy
