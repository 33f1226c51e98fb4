type t = {
  width : int;
  pipeline_depth : int;
  window_size : int;
  rob_size : int;
  short_delay : int;
  long_delay : int;
  dtlb_walk : int;
  fetch_buffer : int;
}

let baseline =
  {
    width = 4;
    pipeline_depth = 5;
    window_size = 48;
    rob_size = 128;
    short_delay = 8;
    long_delay = 200;
    dtlb_walk = 30;
    fetch_buffer = 0;
  }

let check t =
  let module C = Fom_check.Checker in
  C.min_int ~code:"FOM-P001" ~path:"params.width" ~min:1 t.width
  @ C.min_int ~code:"FOM-P002" ~path:"params.pipeline_depth" ~min:1 t.pipeline_depth
  @ C.min_int ~code:"FOM-P003" ~path:"params.window_size" ~min:1 t.window_size
  @ (if t.window_size <= t.rob_size then C.ok
     else
       C.fail ~code:"FOM-P004" ~path:"params.window_size"
         (Printf.sprintf "window_size (%d) must not exceed rob_size (%d)" t.window_size
            t.rob_size))
  @ C.min_int ~code:"FOM-P005" ~path:"params.short_delay" ~min:1 t.short_delay
  @ (if t.long_delay >= t.short_delay then C.ok
     else
       C.fail ~code:"FOM-P006" ~path:"params.long_delay"
         (Printf.sprintf "long_delay (%d) must not be below short_delay (%d)" t.long_delay
            t.short_delay))
  @ C.min_int ~code:"FOM-P007" ~path:"params.dtlb_walk" ~min:1 t.dtlb_walk
  @ C.min_int ~code:"FOM-P008" ~path:"params.fetch_buffer" ~min:0 t.fetch_buffer

let validate t = Fom_check.Checker.run_exn (check t)
