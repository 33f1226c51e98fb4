(* Tests for Fom_cache: geometry arithmetic, LRU behaviour, hierarchy
   miss classification. *)

module Geometry = Fom_cache.Geometry
module Sa_cache = Fom_cache.Sa_cache
module Hierarchy = Fom_cache.Hierarchy

let small = Geometry.make ~size:1024 ~assoc:2 ~line:64 (* 8 sets *)

(* 1 when accessing [addr] misses: the tests count misses as the
   accesses that return [false]. *)
let miss c addr = if Sa_cache.access c addr then 0 else 1

let test_geometry_baseline () =
  Alcotest.(check int) "l1 sets" 8 (Geometry.sets Geometry.l1_baseline);
  Alcotest.(check int) "l2 sets" 1024 (Geometry.sets Geometry.l2_baseline)

let test_geometry_mapping () =
  let line_mask l1i = Hierarchy.inst_line_mask { Hierarchy.baseline with Hierarchy.l1i } in
  Alcotest.(check int) "line address" 0x40 (0x7f land line_mask (Hierarchy.Real small));
  Alcotest.(check int) "ideal l1i lines" 0x100 (0x17f land line_mask Hierarchy.Ideal)

let test_cache_cold_miss_then_hit () =
  let c = Sa_cache.create small in
  Alcotest.(check bool) "cold miss" false (Sa_cache.access c 0x100);
  Alcotest.(check bool) "then hit" true (Sa_cache.access c 0x100);
  Alcotest.(check bool) "same line hits" true (Sa_cache.access c 0x13f)

let test_cache_lru_eviction () =
  let c = Sa_cache.create small in
  (* Three distinct tags in the same 2-way set: a, b, then touch a,
     then c must evict b (the LRU), not a. *)
  let set_stride = 8 * 64 in
  let a = 0x0 and b = set_stride and d = 2 * set_stride in
  ignore (Sa_cache.access c a);
  ignore (Sa_cache.access c b);
  ignore (Sa_cache.access c a);
  ignore (Sa_cache.access c d);
  Alcotest.(check bool) "a still resident" true (Sa_cache.probe c a);
  Alcotest.(check bool) "b evicted" false (Sa_cache.probe c b);
  Alcotest.(check bool) "d resident" true (Sa_cache.probe c d)

let test_cache_probe_no_side_effect () =
  let c = Sa_cache.create small in
  Alcotest.(check bool) "probe miss" false (Sa_cache.probe c 0x200);
  Alcotest.(check bool) "still miss" false (Sa_cache.probe c 0x200);
  Alcotest.(check bool) "first access still misses" false (Sa_cache.access c 0x200)

let test_cache_working_set_fits () =
  (* A working set equal to capacity must fully hit after one pass. *)
  let c = Sa_cache.create small in
  let lines = small.Geometry.size / small.Geometry.line in
  for i = 0 to lines - 1 do
    ignore (Sa_cache.access c (i * 64))
  done;
  let second_pass = ref 0 in
  for i = 0 to lines - 1 do
    second_pass := !second_pass + miss c (i * 64)
  done;
  Alcotest.(check int) "second pass all hits" 0 !second_pass

let test_cache_thrashing_set () =
  (* assoc+1 tags cycling through one set with LRU miss every time. *)
  let c = Sa_cache.create small in
  let set_stride = 8 * 64 in
  let misses = ref 0 in
  for _ = 1 to 10 do
    for k = 0 to 2 do
      misses := !misses + miss c (k * set_stride)
    done
  done;
  Alcotest.(check int) "all misses" 30 !misses

let test_cache_miss_rate_monotone_in_size () =
  (* Random accesses over 64 KiB: a bigger cache can only help. *)
  let rng = Fom_util.Rng.create 21 in
  let addrs = Array.init 20000 (fun _ -> Fom_util.Rng.int rng 65536) in
  let run size =
    let c = Sa_cache.create (Geometry.make ~size ~assoc:4 ~line:64) in
    Array.fold_left (fun n a -> n + miss c a) 0 addrs
  in
  let small_rate = run 4096 and big_rate = run 32768 in
  Alcotest.(check bool) "bigger cache misses less" true (big_rate < small_rate)

let test_hierarchy_classification () =
  let h = Hierarchy.create Hierarchy.baseline in
  (* Cold: L1 miss and L2 miss -> Memory; second touch -> L1 hit. *)
  Alcotest.(check bool) "cold long miss" true (Hierarchy.access_data h 0x5000 = Hierarchy.Memory);
  Alcotest.(check bool) "rehit" true (Hierarchy.access_data h 0x5000 = Hierarchy.L1_hit)

let test_hierarchy_short_miss () =
  let h = Hierarchy.create Hierarchy.baseline in
  ignore (Hierarchy.access_data h 0x9000);
  (* Evict 0x9000 from the tiny L1 but keep it in the big L2: walk
     enough conflicting lines. *)
  for k = 1 to 8 do
    ignore (Hierarchy.access_data h (0x9000 + (k * 4096)))
  done;
  Alcotest.(check bool) "L2 catch" true (Hierarchy.access_data h 0x9000 = Hierarchy.L2_hit)

let test_hierarchy_ideal () =
  let h = Hierarchy.create Hierarchy.all_ideal in
  for i = 0 to 999 do
    Alcotest.(check bool) "always hits" true
      (Hierarchy.access_data h (i * 8192) = Hierarchy.L1_hit)
  done

let test_hierarchy_fig14 () =
  let h = Hierarchy.create Hierarchy.fig14 in
  (* No L2: every L1D miss is a long miss. *)
  Alcotest.(check bool) "long" true (Hierarchy.access_data h 0xA0000 = Hierarchy.Memory);
  Alcotest.(check bool) "inst side ideal" true
    (Hierarchy.access_inst h 0x400000 = Hierarchy.L1_hit)

let test_hierarchy_latencies () =
  let h = Hierarchy.create Hierarchy.baseline in
  Alcotest.(check int) "l1" 1 (Hierarchy.data_latency h Hierarchy.L1_hit);
  Alcotest.(check int) "l2" 8 (Hierarchy.data_latency h Hierarchy.L2_hit);
  Alcotest.(check int) "memory" 200 (Hierarchy.data_latency h Hierarchy.Memory);
  Alcotest.(check int) "inst hit no stall" 0 (Hierarchy.inst_stall h Hierarchy.L1_hit);
  Alcotest.(check int) "inst l2 stall" 8 (Hierarchy.inst_stall h Hierarchy.L2_hit)

let test_hierarchy_inst_side_stats () =
  let h = Hierarchy.create Hierarchy.baseline in
  Alcotest.(check bool) "cold fetch" true (Hierarchy.access_inst h 0x400000 = Hierarchy.Memory);
  Alcotest.(check bool) "refetch" true (Hierarchy.access_inst h 0x400000 = Hierarchy.L1_hit)

let test_direct_mapped_conflicts () =
  (* A direct-mapped cache thrashes on two same-set tags where a 2-way
     cache holds both. *)
  let geometry ~assoc = Geometry.make ~size:1024 ~assoc ~line:64 in
  let run assoc =
    let c = Sa_cache.create (geometry ~assoc) in
    let sets = Geometry.sets (geometry ~assoc) in
    let a = 0x0 and b = sets * 64 in
    let misses = ref 0 in
    for _ = 1 to 10 do
      misses := !misses + miss c a + miss c b
    done;
    !misses
  in
  Alcotest.(check int) "direct-mapped thrashes" 20 (run 1);
  Alcotest.(check int) "2-way holds both" 2 (run 2)

let prop_geometry_mapping_sane =
  QCheck.Test.make ~name:"geometry mapping stays in range" ~count:200
    QCheck.(pair (int_range 0 10_000_000) (int_range 0 2))
    (fun (addr, g) ->
      let geometry =
        [| Geometry.l1_baseline; Geometry.l2_baseline; Geometry.make ~size:1024 ~assoc:2 ~line:64 |].(g)
      in
      let line =
        addr land Hierarchy.inst_line_mask { Hierarchy.baseline with l1i = Real geometry }
      in
      Geometry.sets geometry > 0 && line <= addr && addr - line < geometry.Geometry.line)

let prop_access_then_resident =
  QCheck.Test.make ~name:"an accessed line is immediately resident" ~count:100
    QCheck.(int_range 0 1000000)
    (fun addr ->
      let c = Sa_cache.create small in
      ignore (Sa_cache.access c addr);
      Sa_cache.probe c addr)

let suite =
  ( "cache",
    [
      Alcotest.test_case "geometry baseline" `Quick test_geometry_baseline;
      Alcotest.test_case "geometry mapping" `Quick test_geometry_mapping;
      Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
      Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
      Alcotest.test_case "probe has no side effect" `Quick test_cache_probe_no_side_effect;
      Alcotest.test_case "working set fits" `Quick test_cache_working_set_fits;
      Alcotest.test_case "thrashing set" `Quick test_cache_thrashing_set;
      Alcotest.test_case "miss rate monotone in size" `Quick test_cache_miss_rate_monotone_in_size;
      Alcotest.test_case "hierarchy classification" `Quick test_hierarchy_classification;
      Alcotest.test_case "hierarchy short miss" `Quick test_hierarchy_short_miss;
      Alcotest.test_case "hierarchy ideal" `Quick test_hierarchy_ideal;
      Alcotest.test_case "hierarchy fig14" `Quick test_hierarchy_fig14;
      Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
      Alcotest.test_case "hierarchy inst stats" `Quick test_hierarchy_inst_side_stats;
      Alcotest.test_case "direct-mapped conflicts" `Quick test_direct_mapped_conflicts;
      QCheck_alcotest.to_alcotest prop_geometry_mapping_sane;
      QCheck_alcotest.to_alcotest prop_access_then_resident;
    ] )
