(* The detailed simulator's cycle rules, re-derived for a run and
   compared with its pipeline record (Simulate.run_recorded): the oracle
   both kernels are tested against. It steps every cycle in the
   machine's order (retire, issue, dispatch, fetch) and rescans its
   whole window oldest-first, with no calendar, bitmap or recurrence.
   A fresh predictor, cache hierarchy and dTLB are replayed in that
   derived order: data accesses as loads and stores issue, oldest
   first within a cycle, and I-cache probes and branch predictions as
   fetch reaches them. The I-side shares the L2 with the data side, so
   the two must interleave in cycle order, and a load's latency depends
   on every access before it. So every stage cycle, steering, each
   load's latency, the predictor's and the I-cache's verdicts, the
   cycle count, every miss count, the misses under a long miss and
   every mean are derived and compared exactly; [check] returns the
   first disagreement. The record must come from a fresh machine. *)

module Config = Fom_uarch.Config
module Stats = Fom_uarch.Stats
module Opclass = Fom_isa.Opclass
module Packed = Fom_trace.Packed
module Hierarchy = Fom_cache.Hierarchy

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

let derive (config : Config.t) (p : Packed.t) (r : Stats.record) (stats : Stats.t) =
  let len = p.Packed.len in
  let width = config.Config.width and clusters = config.Config.clusters in
  let load = Opclass.to_int Opclass.Load and store = Opclass.to_int Opclass.Store in
  let branch = Opclass.to_int Opclass.Branch in
  let latency = Fom_isa.Latency.table config.Config.latencies in
  let fu_limit =
    Array.init Opclass.count (fun op ->
        Fom_isa.Fu_set.of_class config.Config.fu_limits (Opclass.of_int op))
  in
  let line_mask =
    match config.Config.cache.Hierarchy.l1i with
    | Hierarchy.Real g -> lnot (g.Fom_cache.Geometry.line - 1)
    | Hierarchy.Ideal -> lnot 127
  in
  let retired = ref 0 and dispatched = ref 0 and fetched = ref 0 in
  let hierarchy = Hierarchy.create config.Config.cache in
  let predictor = Fom_branch.Predictor.create config.Config.predictor in
  let dtlb = Option.map Fom_cache.Tlb.create config.Config.dtlb in
  let short_misses = ref 0 and long_misses = ref 0 and dtlb_misses = ref 0 in
  let l2_fetches = ref 0 and memory_fetches = ref 0 in
  let mispredictions_under_long = ref 0 and imisses_under_long = ref 0 in
  let rob_ahead_of_long_miss = Fom_util.Stats.Acc.create () in
  (* The latest completion of a long miss so far: one is outstanding at
     cycle [c] exactly when it lies past [c]. *)
  let long_until = ref (-1) in
  let walk_latency =
    match config.Config.dtlb with Some s -> s.Fom_cache.Tlb.walk_latency | None -> 0
  in
  (* A dTLB miss fills the entry and adds the walk in front of the
     cache access; only a load's counts. *)
  let walk ~count addr =
    match dtlb with
    | Some tlb when not (Fom_cache.Tlb.access tlb addr) ->
        if count then incr dtlb_misses;
        walk_latency
    | Some _ | None -> 0
  in
  (* A load completes after the larger of its class latency and its
     cache level's, or after the memory latency, behind its walk. A
     store touches the dTLB and the caches but never waits. *)
  let execute i c =
    let op = p.Packed.op.(i) and addr = p.Packed.ea.(i) in
    let l = config.Config.cache.Hierarchy.latencies in
    if op = load then begin
      let walk = walk ~count:true addr in
      match Hierarchy.access_data hierarchy addr with
      | Hierarchy.L1_hit -> walk + Int.max latency.(op) l.Hierarchy.l1
      | Hierarchy.L2_hit ->
          incr short_misses;
          walk + Int.max latency.(op) l.Hierarchy.l2
      | Hierarchy.Memory ->
          incr long_misses;
          long_until := Int.max !long_until (c + walk + l.Hierarchy.memory);
          Fom_util.Stats.Acc.add rob_ahead_of_long_miss (float_of_int (i - !retired));
          walk + l.Hierarchy.memory
    end
    else begin
      if op = store then begin
        ignore (walk ~count:false addr);
        ignore (Hierarchy.access_data hierarchy addr)
      end;
      latency.(op)
    end
  in
  let column init = Array.make len init in
  let fetch = column (-1) and dispatch = column (-1) and issue = column (-1) in
  let complete = column (-1) and retire = column (-1) and cluster = column (-1) in
  let mispredicted = Array.make len false and icache_stall = column 0 in
  (* The window: dispatched, unissued instructions, oldest first. *)
  let waiting = Array.make config.Config.window_size 0 and win = ref 0 in
  let cluster_count = Array.make clusters 0 and next_cluster = ref 0 in
  let fu_busy = Array.make Opclass.count 0 and cluster_issued = Array.make clusters 0 in
  let blocking = ref (-1) and stall_until = ref 0 and last_line = ref (-1) in
  let window_sum = ref 0 and rob_sum = ref 0 in
  let window_at_branch_issue = Fom_util.Stats.Acc.create () in
  let cycle = ref 0 in
  while !retired < stats.Stats.instructions do
    let c = !cycle in
    if c >= stats.Stats.cycles then
      fail "%d of %d instructions retired by cycle %d, where the run ended" !retired
        stats.Stats.instructions c;
    (* Retire: in order, completed only, up to the width. *)
    let budget = ref width in
    while
      !budget > 0 && !retired < !dispatched
      && complete.(!retired) >= 0
      && complete.(!retired) <= c
    do
      retire.(!retired) <- c;
      incr retired;
      decr budget
    done;
    (* Issue: oldest first over the whole window, under the width, the
       per-cluster width and the FU limits. An operand is ready once
       its producer has retired, or has completed — a cycle later if it
       was produced in another cluster. *)
    Array.fill fu_busy 0 Opclass.count 0;
    Array.fill cluster_issued 0 clusters 0;
    let ready i =
      let ok = ref true in
      for k = p.Packed.dep_off.(i) to p.Packed.dep_off.(i + 1) - 1 do
        let d = p.Packed.dep_val.(k) in
        let bypass = if cluster.(d) = cluster.(i) then 0 else 1 in
        if not (d < !retired || (complete.(d) >= 0 && complete.(d) + bypass <= c)) then
          ok := false
      done;
      !ok
    in
    let issued = ref 0 and kept = ref 0 in
    for k = 0 to !win - 1 do
      let i = waiting.(k) in
      let op = p.Packed.op.(i) and cl = cluster.(i) in
      if
        !issued < width
        && cluster_issued.(cl) < width / clusters
        && fu_busy.(op) < fu_limit.(op)
        && ready i
      then begin
        (* Window entries besides itself, less those issued before it
           this cycle, when the blocking branch issues. *)
        if i = !blocking then
          Fom_util.Stats.Acc.add window_at_branch_issue (float_of_int (!win - !issued - 1));
        issue.(i) <- c;
        complete.(i) <- c + execute i c;
        if op = load && complete.(i) <> r.Stats.complete.(i) then
          fail "load %d issued at cycle %d: replay completes it at %d, record at %d" i c
            complete.(i) r.Stats.complete.(i);
        fu_busy.(op) <- fu_busy.(op) + 1;
        cluster_issued.(cl) <- cluster_issued.(cl) + 1;
        cluster_count.(cl) <- cluster_count.(cl) - 1;
        incr issued
      end
      else begin
        waiting.(!kept) <- i;
        incr kept
      end
    done;
    win := !kept;
    (* Dispatch: in order, up to the width, once through the front-end
       pipe, while window and ROB have room. Round-robin steering; a
       full cluster passes its turn. *)
    let budget = ref width in
    while
      !budget > 0
      && !win < config.Config.window_size
      && !dispatched - !retired < config.Config.rob_size
      && !dispatched < !fetched
      && fetch.(!dispatched) + config.Config.pipeline_depth <= c
    do
      let i = !dispatched in
      while cluster_count.(!next_cluster) >= config.Config.window_size / clusters do
        next_cluster := (!next_cluster + 1) mod clusters
      done;
      cluster.(i) <- !next_cluster;
      cluster_count.(!next_cluster) <- cluster_count.(!next_cluster) + 1;
      next_cluster := (!next_cluster + 1) mod clusters;
      dispatch.(i) <- c;
      waiting.(!win) <- i;
      incr win;
      incr dispatched;
      decr budget
    done;
    (* Fetch: a mispredicted branch blocks it until the branch
       completes, an I-cache miss until its stall ends; otherwise up to
       the fetch limit while the pipe has room. A probe happens when
       the line changes; a miss stalls at least the rest of the cycle. *)
    if !blocking >= 0 && complete.(!blocking) >= 0 && complete.(!blocking) <= c then blocking := -1;
    if !blocking < 0 && c >= !stall_until then begin
      let limit = if config.Config.fetch_buffer > 0 then 2 * width else width in
      let pipe_capacity = (width * config.Config.pipeline_depth) + config.Config.fetch_buffer in
      let count = ref 0 and stop = ref false in
      while (not !stop) && !count < limit && !fetched - !dispatched < pipe_capacity do
        let i = !fetched in
        if i >= len then fail "fetch runs past the %d-instruction packing at cycle %d" len c;
        let pc = p.Packed.pc.(i) in
        if pc land line_mask <> !last_line then begin
          last_line := pc land line_mask;
          match Hierarchy.access_inst hierarchy pc with
          | Hierarchy.L1_hit -> ()
          | outcome ->
              incr (if outcome = Hierarchy.L2_hit then l2_fetches else memory_fetches);
              if !long_until > c then incr imisses_under_long;
              icache_stall.(i) <- Int.max 1 (Hierarchy.inst_stall hierarchy outcome);
              stall_until := c + icache_stall.(i);
              stop := true
        end;
        if not !stop then begin
          fetch.(i) <- c;
          incr fetched;
          incr count;
          if
            p.Packed.op.(i) = branch
            && not
                 (Fom_branch.Predictor.observe predictor ~pc
                    ~taken:(p.Packed.ea.(i) land 1 = 1))
          then begin
            if !long_until > c then incr mispredictions_under_long;
            mispredicted.(i) <- true;
            blocking := i;
            stop := true
          end
        end
      done
    end;
    window_sum := !window_sum + !win;
    rob_sum := !rob_sum + (!dispatched - !retired);
    incr cycle
  done;
  let columns =
    [
      ("fetch", fetch, r.Stats.fetch);
      ("dispatch", dispatch, r.Stats.dispatch);
      ("issue", issue, r.Stats.issue);
      ("complete", complete, r.Stats.complete);
      ("retire", retire, r.Stats.retire);
      ("cluster", cluster, r.Stats.cluster);
      ("icache_stall", icache_stall, r.Stats.icache_stall);
    ]
  in
  List.iter
    (fun (name, derived, recorded) ->
      Array.iteri
        (fun i d ->
          if d <> recorded.(i) then
            fail "%s of instruction %d: recorded %d, derived %d" name i recorded.(i) d)
        derived)
    columns;
  Array.iteri
    (fun i m ->
      if m <> r.Stats.mispredicted.(i) then
        fail "misprediction of instruction %d: recorded %b, derived %b" i
          r.Stats.mispredicted.(i) m)
    mispredicted;
  let mean sum = float_of_int sum /. float_of_int (Int.max 1 !cycle) in
  let exact name derived recorded =
    if derived <> recorded then fail "%s: stats %s, derived %s" name recorded derived
  in
  exact "cycles" (string_of_int !cycle) (string_of_int stats.Stats.cycles);
  exact "instructions" (string_of_int !retired) (string_of_int stats.Stats.instructions);
  exact "mispredictions"
    (string_of_int (Array.fold_left (fun n m -> if m then n + 1 else n) 0 mispredicted))
    (string_of_int stats.Stats.branch_mispredictions);
  let count name derived recorded = exact name (string_of_int derived) (string_of_int recorded) in
  count "L1I misses" !l2_fetches stats.Stats.l1i_misses;
  count "L2I misses" !memory_fetches stats.Stats.l2i_misses;
  count "short data misses" !short_misses stats.Stats.short_data_misses;
  count "long data misses" !long_misses stats.Stats.long_data_misses;
  count "dTLB misses" !dtlb_misses stats.Stats.dtlb_misses;
  count "mispredictions under a long miss" !mispredictions_under_long
    stats.Stats.mispredictions_under_long_miss;
  count "I-misses under a long miss" !imisses_under_long stats.Stats.imisses_under_long_miss;
  exact "ROB ahead of a long miss"
    (Printf.sprintf "%h" (Fom_util.Stats.Acc.mean rob_ahead_of_long_miss))
    (Printf.sprintf "%h" stats.Stats.rob_ahead_of_long_miss);
  exact "window at branch issue"
    (Printf.sprintf "%h" (Fom_util.Stats.Acc.mean window_at_branch_issue))
    (Printf.sprintf "%h" stats.Stats.window_at_branch_issue);
  exact "mean window occupancy" (Printf.sprintf "%h" (mean !window_sum))
    (Printf.sprintf "%h" stats.Stats.mean_window_occupancy);
  exact "mean ROB occupancy" (Printf.sprintf "%h" (mean !rob_sum))
    (Printf.sprintf "%h" stats.Stats.mean_rob_occupancy)

let check config packed record stats =
  match derive config packed record stats with
  | () -> Ok ()
  | exception Mismatch m -> Error m
