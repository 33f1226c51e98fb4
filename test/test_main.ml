let () =
  Alcotest.run "fom"
    [
      Suite_check.suite;
      Suite_exec.suite;
      Suite_obs.suite;
      Suite_util.suite;
      Suite_isa.suite;
      Suite_trace.suite;
      Suite_generation.suite;
      Suite_source.suite;
      Suite_phases.suite;
      Suite_cache.suite;
      Suite_branch.suite;
      Suite_uarch.suite;
      Suite_machine_exactness.suite;
      Suite_model.suite;
      Suite_analysis.suite;
      Suite_extensions.suite;
      Suite_workloads.suite;
    ]
