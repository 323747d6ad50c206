/*
 * fastod_c.h — stable C ABI for the fastod order-dependency library.
 *
 * Handle-based sessions over the C++ DiscoveryService: create a session
 * for a named algorithm, configure it with string options, bind a CSV,
 * execute (synchronously or asynchronously on the library's worker
 * pool), poll progress, and collect the result as JSON. No C++ type
 * crosses this boundary; every function is callable from C89, and the
 * header itself compiles as C89 ("cc -std=c90 -pedantic").
 *
 *   fastod_session_t* s = fastod_create("fastod");
 *   fastod_set_option(s, "threads", "2");
 *   fastod_load_csv(s, "flight.csv");
 *   fastod_execute_async(s);
 *   while (fastod_poll(s, &progress) < FASTOD_STATE_DONE) sleep(1);
 *   puts(fastod_result_json(s));      (or block with fastod_wait(s))
 *   fastod_destroy(s);
 *
 * Error handling: functions returning int yield FASTOD_OK (0) or a
 * positive FASTOD_ERR_* code; the human-readable message is kept per
 * session and read with fastod_last_error(). Functions returning
 * const char* yield pointers owned by the library — never free() them;
 * they stay valid until the next call on the same session (or, for
 * session-less functions, for the process lifetime).
 *
 * Thread safety: one session may be driven from one thread at a time,
 * except fastod_poll/fastod_cancel/fastod_last_error, which are safe
 * concurrently with an asynchronous run. Distinct sessions are fully
 * independent; they share only the scheduler's worker pool.
 *
 * Thread affinity: the "threads" option parallelizes the engine
 * internally (parallel batches within each level of the lattice walk); it
 * never changes this API's contract. Results are byte-identical across
 * thread counts, callbacks do not exist at this layer, and the internal
 * workers (named "fastod-od-N" / "fastod-fd-N" in debuggers and
 * profilers) live only for the duration of one execution. Session-less
 * functions (fastod_version_string, registry introspection) are safe
 * from any thread concurrently.
 */
#ifndef FASTOD_CAPI_FASTOD_C_H_
#define FASTOD_CAPI_FASTOD_C_H_

/* Library version this header was generated with; compare against
 * fastod_version_string() to detect header/library skew. */
#define FASTOD_VERSION_MAJOR 0
#define FASTOD_VERSION_MINOR 7
#define FASTOD_VERSION_PATCH 0

/* Error codes. 1..6 and 8..10 mirror fastod::StatusCode; 7 flags misuse
 * of the C layer itself (NULL or destroyed handle). */
#define FASTOD_OK 0
#define FASTOD_ERR_INVALID_ARGUMENT 1
#define FASTOD_ERR_NOT_FOUND 2
#define FASTOD_ERR_OUT_OF_RANGE 3
#define FASTOD_ERR_FAILED_PRECONDITION 4
#define FASTOD_ERR_IO 5
#define FASTOD_ERR_RESOURCE_EXHAUSTED 6
#define FASTOD_ERR_NULL_HANDLE 7
#define FASTOD_ERR_INTERNAL 8
/* The run's hard wall-clock deadline passed (the "timeout-ms" option);
 * the session is FASTOD_STATE_FAILED with this code in its status. */
#define FASTOD_ERR_DEADLINE 9
/* Transient overload or shutdown (admission cap, pool stopping); the
 * operation was refused — retry later. */
#define FASTOD_ERR_UNAVAILABLE 10

/* Session states returned by fastod_poll() and fastod_wait(). The
 * terminal states are DONE, FAILED and CANCELLED. */
#define FASTOD_STATE_CREATED 0
#define FASTOD_STATE_QUEUED 1
#define FASTOD_STATE_RUNNING 2
#define FASTOD_STATE_DONE 3
#define FASTOD_STATE_FAILED 4
#define FASTOD_STATE_CANCELLED 5

/* Option kinds returned by fastod_option_kind(); frozen, mirroring
 * fastod::OptionKind. */
#define FASTOD_OPTION_BOOL 0
#define FASTOD_OPTION_INT 1
#define FASTOD_OPTION_DOUBLE 2
#define FASTOD_OPTION_STRING 3
#define FASTOD_OPTION_ENUM 4

#ifdef __cplusplus
extern "C" {
#endif

/* Opaque session handle. */
typedef struct fastod_session fastod_session_t;

/* Opaque shared-dataset handle (load once, discover many). */
typedef struct fastod_dataset fastod_dataset_t;

/* "MAJOR.MINOR.PATCH", matching the macros this header was built with. */
const char* fastod_version_string(void);

/* ---- Registry introspection (no session required) ------------------ */

/* Number of registered discovery algorithms. */
int fastod_algorithm_count(void);
/* Name of the index-th algorithm (registration order), or NULL when the
 * index is out of range. */
const char* fastod_algorithm_name(int index);
/* One-line description of a named algorithm, or NULL for unknown names. */
const char* fastod_algorithm_description(const char* algorithm);

/* ---- Session lifecycle --------------------------------------------- */

/* Creates a session running `algorithm` (see fastod_algorithm_name).
 * Returns NULL for unknown names; the message — listing the registered
 * names — is then available via fastod_last_error(NULL). */
fastod_session_t* fastod_create(const char* algorithm);

/* Releases the session and its results. Safe on NULL. A still-running
 * execution is cancelled and detached; the library reclaims it once the
 * engine stops at its next check point. */
void fastod_destroy(fastod_session_t* session);

/* Parses and applies one option ("threads", "4"). Unknown names and
 * malformed or out-of-range values fail, naming the option in
 * fastod_last_error(). Only valid before execution is scheduled.
 *
 * Names are matched against the canonical hyphenated spelling first
 * ("emit-ods"), then against its underscore spelling ("emit_ods"). The
 * underscore spelling keeps working but is counted in the
 * fastod_deprecated_option_total metric; new code should send the
 * canonical name reported by fastod_option_name(). */
int fastod_set_option(fastod_session_t* session, const char* name,
                      const char* value);

/* ---- Option introspection ------------------------------------------ */

/* Number of options the session's algorithm accepts; only canonical
 * names are enumerated. */
int fastod_option_count(const fastod_session_t* session);
/* Metadata of the index-th option (registration order). Name/description/
 * default return NULL and kind returns -1 when the index is out of
 * range. The default is rendered in the same spelling fastod_set_option
 * parses. */
const char* fastod_option_name(const fastod_session_t* session, int index);
int fastod_option_kind(const fastod_session_t* session, int index);
const char* fastod_option_default(const fastod_session_t* session,
                                  int index);
const char* fastod_option_description(const fastod_session_t* session,
                                      int index);

/* ---- Data + execution ---------------------------------------------- */

/* Reads a CSV file (header row, comma delimiter, type inference) and
 * binds it to the session. fastod_load_csv_opts overrides the delimiter,
 * header handling and row limit (max_rows < 0 means all rows). */
int fastod_load_csv(fastod_session_t* session, const char* path);
int fastod_load_csv_opts(fastod_session_t* session, const char* path,
                         char delimiter, int has_header, long max_rows);

/* ---- Shared datasets ------------------------------------------------ */

/* Loads a CSV once — parse, type inference, order-preserving encoding,
 * and the level-1 partitions every level-wise engine builds first — into
 * an immutable dataset any number of sessions can bind by reference via
 * fastod_use_dataset(), including sessions running concurrently with
 * different algorithms. Returns NULL on failure; the message is then
 * available via fastod_last_error(NULL). */
fastod_dataset_t* fastod_dataset_load_csv(const char* path);
fastod_dataset_t* fastod_dataset_load_csv_opts(const char* path,
                                               char delimiter,
                                               int has_header,
                                               long max_rows);

/* Row / attribute counts of a loaded dataset (-1 on NULL). */
long fastod_dataset_rows(const fastod_dataset_t* dataset);
int fastod_dataset_columns(const fastod_dataset_t* dataset);

/* Appends rows (headerless CSV text, comma delimiter, one row per line)
 * to a dataset, returning a NEW handle for the grown version; the input
 * handle and every session bound to it are untouched — versions are
 * immutable. Delta rows are re-encoded into the existing dictionaries
 * and the level-1 partitions extended, so the grown version costs work
 * proportional to the delta, not the whole relation. Returns NULL on
 * failure (column-count mismatch, parse error); the message is then
 * available via fastod_last_error(NULL). */
fastod_dataset_t* fastod_dataset_append_rows(const fastod_dataset_t* dataset,
                                             const char* csv_text);

/* Version number of the handle's dataset (1 for a freshly loaded one,
 * +1 per append) and the rows it inherited from the version it grew
 * from (0 for version 1). rows - base_rows is the last delta's size.
 * Both return -1 on NULL. */
long fastod_dataset_version(const fastod_dataset_t* dataset);
long fastod_dataset_base_rows(const fastod_dataset_t* dataset);

/* Binds the dataset to a session — no copy, no re-parse; the session
 * keeps the data alive for its own lifetime, so destroying the dataset
 * handle while sessions still use it is safe. Only valid before
 * execution is scheduled. */
int fastod_use_dataset(fastod_session_t* session,
                       const fastod_dataset_t* dataset);

/* Releases the handle's reference. Safe on NULL. Sessions bound to the
 * dataset are unaffected (reference counting keeps the data alive). */
void fastod_dataset_destroy(fastod_dataset_t* dataset);

/* Runs discovery on the calling thread; returns once terminal. */
int fastod_execute(fastod_session_t* session);

/* Schedules discovery on the library's worker pool and returns
 * immediately; observe it with fastod_poll()/fastod_wait(). */
int fastod_execute_async(fastod_session_t* session);

/* Returns the FASTOD_STATE_* of the session, or the negated
 * FASTOD_ERR_NULL_HANDLE on a NULL handle. When progress_out is non-NULL
 * it receives the engine's completion fraction in [0, 1]. */
int fastod_poll(const fastod_session_t* session, double* progress_out);

/* Blocks until the session is terminal; returns its final
 * FASTOD_STATE_* (negated error code on a NULL handle). */
int fastod_wait(fastod_session_t* session);

/* Asks a queued or running execution to stop at its next check point.
 * Queued runs are skipped; running engines keep their partial results.
 * Idempotent. */
int fastod_cancel(fastod_session_t* session);

/* ---- Results ------------------------------------------------------- */

/* The result in the library's stable JSON shape (see report/report.h in
 * the C++ sources). Valid once the session is DONE or CANCELLED (partial
 * results); NULL otherwise. Owned by the session — valid until the next
 * call on it. */
const char* fastod_result_json(fastod_session_t* session);

/* Human-readable result summary under the same rules. */
const char* fastod_result_text(fastod_session_t* session);

/* The session's observability trace as JSON: the phase spans recorded
 * while it ran (csv.read, csv.tokenize, encode, partitions.level1,
 * execute, level[k]) plus the engine's search counters once terminal —
 * {"spans":[...],"engine":...}. Unlike
 * fastod_result_json this is readable in ANY state (a running session
 * shows the spans completed so far) and is empty-but-valid JSON when
 * metrics are disabled via FASTOD_METRICS=off. NULL only on a NULL or
 * destroyed handle. Owned by the session — valid until the next call on
 * it. */
const char* fastod_session_trace_json(fastod_session_t* session);

/* The message of the most recent failure on this session; "" when none.
 * fastod_last_error(NULL) reads the calling thread's session-less error
 * (a failed fastod_create). */
const char* fastod_last_error(const fastod_session_t* session);

#ifdef __cplusplus
}
#endif

#endif /* FASTOD_CAPI_FASTOD_C_H_ */
