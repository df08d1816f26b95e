"""A minimal Virtual File System layer: character devices and file objects.

Linux device drivers expose functionality as file operations registered
with the VFS (paper section 1).  The HFI1 driver registers ``/dev/hfi1_N``
here; McKernel has no VFS at all — its device access goes through the proxy
process, whose file descriptor table lives on this side.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import BadSyscall


class FileOps:
    """Driver callbacks, mirroring ``struct file_operations``.

    Every method is a *generator* (simulation process body) receiving the
    kernel, the file object and the calling task.  The default
    implementations reject the call like a driver with a NULL slot.
    """

    def open(self, kernel, file: "File", task):
        """Driver open callback (default: no-op)."""
        return
        yield  # pragma: no cover

    def release(self, kernel, file: "File", task):
        """Driver close callback (default: no-op)."""
        return
        yield  # pragma: no cover

    def writev(self, kernel, file: "File", task, iovecs):
        """Driver writev callback (default: -EINVAL)."""
        raise BadSyscall(f"{file.path}: no writev support")
        yield  # pragma: no cover

    def ioctl(self, kernel, file: "File", task, cmd, arg):
        """Driver ioctl callback (default: -EINVAL)."""
        raise BadSyscall(f"{file.path}: no ioctl support")
        yield  # pragma: no cover

    def mmap(self, kernel, file: "File", task, length):
        """Driver mmap callback (default: -EINVAL)."""
        raise BadSyscall(f"{file.path}: no mmap support")
        yield  # pragma: no cover

    def poll(self, kernel, file: "File", task):
        """Driver poll callback (default: nothing ready)."""
        return 0
        yield  # pragma: no cover

    def lseek(self, kernel, file: "File", task, offset):
        """Default lseek: set the file position."""
        file.pos = offset
        return offset
        yield  # pragma: no cover


class File:
    """An open file description (``struct file``)."""

    def __init__(self, path: str, ops: FileOps):
        self.path = path
        self.ops = ops
        self.pos = 0
        #: driver per-open state (``file->private_data``); for the HFI1
        #: driver this holds the kernel-heap *address* of hfi1_filedata,
        #: which is what the PicoDriver dereferences cross-kernel.
        self.private_data: Any = None


class VFS:
    """Path to file-operations registry plus per-task fd tables."""

    def __init__(self) -> None:
        self._chrdevs: Dict[str, FileOps] = {}
        self._fd_tables: Dict[str, Dict[int, File]] = {}
        self._next_fd: Dict[str, int] = {}

    # -- devices --------------------------------------------------------

    def register_chrdev(self, path: str, ops: FileOps) -> None:
        """Register file operations for a device path."""
        if path in self._chrdevs:
            raise BadSyscall(f"device {path} already registered")
        self._chrdevs[path] = ops

    def lookup(self, path: str) -> FileOps:
        """File operations for a path (plain files get defaults)."""
        ops = self._chrdevs.get(path)
        if ops is None:
            # non-device paths get a plain file with default ops
            ops = FileOps()
        return ops

    def is_device(self, path: str) -> bool:
        """True if a chrdev is registered at ``path``."""
        return path in self._chrdevs

    # -- fd tables ---------------------------------------------------------

    def fd_table(self, task_name: str) -> Dict[int, File]:
        """The fd table of ``task_name`` (created on demand)."""
        return self._fd_tables.setdefault(task_name, {})

    def install_fd(self, task_name: str, file: File) -> int:
        """Assign the next fd number to an open file."""
        table = self.fd_table(task_name)
        fd = self._next_fd.get(task_name, 3)  # 0-2 are std streams
        self._next_fd[task_name] = fd + 1
        table[fd] = file
        return fd

    def file_for(self, task_name: str, fd: int) -> File:
        """The open file behind an fd (BadSyscall if closed)."""
        table = self.fd_table(task_name)
        if fd not in table:
            raise BadSyscall(f"{task_name}: bad file descriptor {fd}")
        return table[fd]

    def close_fd(self, task_name: str, fd: int) -> File:
        """Remove and return the file behind an fd."""
        table = self.fd_table(task_name)
        if fd not in table:
            raise BadSyscall(f"{task_name}: bad file descriptor {fd}")
        return table.pop(fd)
