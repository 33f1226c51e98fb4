let () = ignore Widget.test_only
let () = ignore (Widget.tuned ~knob:5 ())
