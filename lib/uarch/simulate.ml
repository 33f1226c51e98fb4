module Hierarchy = Fom_cache.Hierarchy
module Packed = Fom_trace.Packed

exception Cycle_limit_exceeded = Age_order.Cycle_limit_exceeded

(* Observability (no-ops unless an Fom_obs sink is enabled). Counters
   accumulate across every run in the process; the event kernel adds
   its own [sim.events] and [sim.skipped_cycles]. *)
let m_runs = Fom_obs.Metrics.counter "sim.runs"
let m_cycles = Fom_obs.Metrics.counter "sim.cycles"
let m_instructions = Fom_obs.Metrics.counter "sim.instructions"
let s_run = Fom_obs.Span.id "sim.run"

(* The most cycles that can pass between two consecutive retirements
   (or between the start of a run and its first). Once instruction [k]
   retires, [k + 1] is the oldest in flight: every older producer has
   completed and every older branch has resolved, the ROB and window
   hold nothing older, and oldest-first issue gives it the first issue
   slot and functional unit of its cluster. In the worst case it has
   not been fetched: an I-cache fill from memory, the front-end pipe,
   a dTLB walk, then the slowest execution (a load from memory or the
   longest class latency). The remaining cycles are one each for
   fetch, dispatch, issue and retire, and a cross-cluster bypass. *)
let retire_gap (config : Config.t) =
  let memory = config.Config.cache.Hierarchy.latencies.Hierarchy.memory in
  let slowest = Array.fold_left Int.max memory (Fom_isa.Latency.table config.Config.latencies) in
  let walk = match config.Config.dtlb with Some s -> s.Fom_cache.Tlb.walk_latency | None -> 0 in
  memory + config.Config.pipeline_depth + walk + slowest + 5

(* A run of a validated machine on the kernel its data side allows. *)
let run_valid ?cycle_limit config packed ~n ~record =
  if n < 1 then
    Fom_check.Checker.run_exn
      (Fom_check.Checker.fail ~code:"FOM-I030" ~path:"machine.n"
         (Printf.sprintf "a run must retire at least one instruction, got n = %d" n));
  let limit = Option.value cycle_limit ~default:(n * retire_gap config) in
  let stats =
    Fom_obs.Span.with_ s_run (fun () ->
        if Config.ideal_data_side config then Age_order.run config packed ~n ~limit ~record
        else Event_kernel.run config packed ~n ~limit ~record)
  in
  Fom_obs.Metrics.incr m_runs;
  Fom_obs.Metrics.add m_cycles stats.Stats.cycles;
  Fom_obs.Metrics.add m_instructions stats.Stats.instructions;
  stats

let run_packed ?cycle_limit config packed ~n =
  Config.validate config;
  run_valid ?cycle_limit config packed ~n ~record:None

let run_recorded config packed ~n =
  Config.validate config;
  let column init = Array.make packed.Packed.len init in
  let r =
    {
      Stats.fetch = column (-1);
      dispatch = column (-1);
      issue = column (-1);
      complete = column (-1);
      retire = column (-1);
      cluster = column (-1);
      mispredicted = Array.make packed.Packed.len false;
      icache_stall = column 0;
    }
  in
  (run_valid config packed ~n ~record:(Some r), r)

let run_source config source ~n =
  (* Validate before sizing the packing from the configuration. *)
  Config.validate config;
  let rows = Packed.padded n ~margin:(Config.inflight_span config) in
  run_valid config (Packed.at_least source ~n:rows) ~n ~record:None

let run config program ~n = run_source config (Fom_trace.Source.of_program program) ~n
