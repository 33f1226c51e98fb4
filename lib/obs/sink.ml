let enable ?(span_capacity = 1 lsl 16) () =
  Span.set_capacity span_capacity;
  Span.reset ();
  Metrics.reset ();
  Atomic.set Gate.enabled true

let disable () = Atomic.set Gate.enabled false
let enabled () = Gate.is_on ()
