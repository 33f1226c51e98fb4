let () = ignore Widget.test_only
