let orphan = ()
