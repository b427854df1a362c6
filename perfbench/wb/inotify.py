"""File-arrival detection with Linux inotify (through ctypes).

A run report is sealed by writing a temporary file and renaming it into
place, so its arrival is an IN_MOVED_TO event on the job directory; a plain
write shows as IN_CLOSE_WRITE. Either marks the report present. A daemon's
Unix socket appears with bind(), an IN_CREATE event on its directory.
"""

import ctypes
import ctypes.util
import errno
import os
import struct

IN_CLOSE_WRITE = 0x00000008
IN_CREATE = 0x00000100
IN_MOVED_TO = 0x00000080
IN_IGNORED = 0x00008000
IN_NONBLOCK = 0o4000
IN_CLOEXEC = 0o2000000
_EVENT = struct.Struct("iIII")

_libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6",
                    use_errno=True)


class ReportWatcher:
    """Watches directories for one file name appearing in each.

    watch(dir, token) arms a watch; ready() returns the tokens whose file
    is present, each once. fileno() can be passed to select().
    """

    def __init__(self, name="report.json",
                 events=IN_MOVED_TO | IN_CLOSE_WRITE):
        self.name = name
        self.events = events
        self.fd = _libc.inotify_init1(IN_NONBLOCK | IN_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1 failed")
        self.tokens = {}   # wd -> token
        self.dirs = {}     # wd -> directory
        self.present = []  # tokens found present while arming

    def fileno(self):
        return self.fd

    def watch(self, directory, token):
        wd = _libc.inotify_add_watch(self.fd, os.fsencode(directory),
                                     self.events)
        if wd < 0:
            raise OSError(ctypes.get_errno(), "inotify_add_watch failed",
                          directory)
        self.tokens[wd] = token
        self.dirs[wd] = directory
        # The file may have landed before the watch existed.
        if os.path.exists(os.path.join(directory, self.name)):
            self._done(wd)

    def _done(self, wd):
        token = self.tokens.pop(wd, None)
        self.dirs.pop(wd, None)
        if token is not None:
            self.present.append(token)
            _libc.inotify_rm_watch(self.fd, wd)

    def ready(self):
        """Tokens whose file is present (drains pending events)."""
        while True:
            try:
                data = os.read(self.fd, 65536)
            except OSError as e:
                if e.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                    break
                raise
            off = 0
            while off < len(data):
                wd, mask, _cookie, length = _EVENT.unpack_from(data, off)
                off += _EVENT.size
                name = data[off:off + length].rstrip(b"\0").decode()
                off += length
                if mask & IN_IGNORED:
                    continue
                if name == self.name:
                    self._done(wd)
        out, self.present = self.present, []
        return out

    def close(self):
        os.close(self.fd)
