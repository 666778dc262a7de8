// Shard worker subprocess entry point.
//
// A worker is forked by shard::Coordinator with one end of a socketpair and
// loops on worker_main(): it materializes the kBegin slice (NetworkConfig
// slice, demand window, initial cache, initial mu), runs a core::ShardCore
// over it on its own workspace bank, which it keeps across kBegins only
// for the buffers — the thread pool parallelizes inside the worker
// exactly as in-process — and answers kIterate/kEnd until the coordinator
// closes the socket or sends kShutdown.
//
// Workers never touch the parent's file descriptors or atexit handlers:
// they leave via _exit() in every path (including the MDO_SHARD_KILL_AT
// test hook, which simulates a mid-solve crash).
#pragma once

namespace mdo::shard {

/// Serves shard RPCs on `fd` until EOF/kShutdown. Returns the process exit
/// code (0 on a clean shutdown); the caller passes it to _exit().
int worker_main(int fd);

}  // namespace mdo::shard
