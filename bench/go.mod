// The benchmark is a module of its own so that it builds from this
// directory alone plus the repository it measures: it requires no
// dependency, and reaches the system's packages (repro/internal/...)
// through the replace below — the import path repro/bench sits under
// repro/, which is what Go's internal-package rule checks.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
