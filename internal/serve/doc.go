// Package serve is the multi-tenant training service behind cmd/fmserve: a
// long-lived HTTP/JSON layer over the public funcmech API.
//
// Three concerns shape the package, each mapped onto a primitive the library
// already provides:
//
//   - Datasets are registered once and shared read-only across requests
//     (Registry). The first fit on a fold shape seals the dataset into a
//     cached accumulator (funcmech.SealDataset); every fit releases from
//     it in O(d²), so the records are read once per shape, never copied.
//   - Every tenant owns a lifetime privacy budget enforced by a
//     *funcmech.Session (Tenants). The session debits atomically before the
//     fit touches data, so concurrent fits against one tenant can never
//     jointly overspend ε — the sequential-composition discipline of the
//     paper, applied per tenant under concurrency.
//   - Machine capacity is arbitrated by a Governor implementing
//     funcmech.Governor: in-flight fits × granted per-fit parallelism never
//     exceeds a GOMAXPROCS-derived cap, so p concurrent fits cannot
//     oversubscribe the sharded accumulator.
//   - Accounting is crash-safe through a write-ahead log (internal/wal):
//     with a WAL attached, every fit and refit follows charge → journal →
//     fit, the debit fsynced to disk before any noise is drawn, and boot
//     replays whatever the tenants.json snapshot does not cover. The
//     guarantee is one-sided by construction — a hard kill may over-count a
//     tenant's lifetime ε (a journaled debit whose fit never released),
//     never under-count it, which is the side a privacy guarantee must err
//     on. Tenant registrations and stream ingest sequences are journaled
//     too, so replay can recreate the accountants it must debit and a
//     stream's sequence numbers never rewind.
//
// Request bodies are JSON by default; the two bulk-data endpoints
// (stream ingest and dataset registration) also negotiate the fmbin
// binary frame via Content-Type: application/x-fmbin — see docs/FORMAT.md
// for the format and docs/ARCHITECTURE.md for the system map and the
// data-sensitivity table consolidating this package's durability and
// privacy notes.
//
// Server wires the four into an http.Handler with typed JSON errors;
// cmd/fmserve adds flags, signal handling, boot-time restore/replay and
// graceful drain.
package serve
